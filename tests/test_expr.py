import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdamp.expr import (EvalDomainError, ExpressionSyntaxError,
                             eval_field, evaluate, evaluate_all, grad_field,
                             parse_expression, run_trapped)
from strongdamp.fields import load_preset


def ev(src, pts, u=None):
    return eval_field(parse_expression(src), np.asarray(pts, dtype=float), u)


def central_difference(f, points, i, u=None):
    """Centered difference of field f along coordinate i, with step
    1e-5 * (1 + |q|): the independent oracle for symbolic derivatives."""
    points = np.asarray(points, dtype=float)
    step = 1e-5 * (1.0 + np.linalg.norm(points, axis=-1))
    hp = points.copy()
    hm = points.copy()
    hp[..., i] += step
    hm[..., i] -= step
    return (eval_field(f, hp, u) - eval_field(f, hm, u)) / (2.0 * step)


def test_arithmetic_and_precedence():
    pts = np.array([[2.0]])
    assert ev("1 + 2*3", pts)[0] == 7.0
    assert ev("2^3^2", pts)[0] == 512.0          # right-associative power
    assert ev("-q1^2", pts)[0] == -4.0           # unary minus binds looser
    assert ev("(1 + q1)/3", pts)[0] == 1.0
    assert ev("2 - 3 - 4", pts)[0] == -5.0


def test_variables_and_functions():
    pts = np.array([[0.5, -1.0]])
    assert ev("q2", pts)[0] == -1.0
    np.testing.assert_allclose(ev("sin(q1) + cos(q2)", pts)[0],
                               np.sin(0.5) + np.cos(-1.0))
    assert ev("max(q1, q2)", pts)[0] == 0.5
    assert ev("min(0, 1 - q1^2/0.01)", pts)[0] == min(0, 1 - 0.25 / 0.01)
    assert ev("abs(q2)", pts)[0] == 1.0


def test_vectorized_eval_broadcasts():
    pts = np.linspace(-1, 1, 7)[:, None]
    out = ev("q1^2/2", pts)
    np.testing.assert_allclose(out, pts[:, 0] ** 2 / 2)
    # constants expand to the batch shape
    assert ev("3", pts).shape == (7,)


def test_reaction_variable_u():
    f = parse_expression("1 - u")
    assert f.uses_u
    out = eval_field(f, np.zeros((3, 1)), u=np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(out, [1.0, 0.5, 0.0])
    with pytest.raises(EvalDomainError):
        eval_field(f, np.zeros((3, 1)))      # u required but missing


def test_syntax_errors_carry_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("q1 + ")
    assert err.value.offset >= 4
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("sin(q1")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("q0")               # indices are 1-based
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("foo(q1)")


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        ev("log(q1)", np.array([[-1.0]]))
    with pytest.raises(EvalDomainError):
        ev("sqrt(q1)", np.array([[-4.0]]))
    with pytest.raises(EvalDomainError):
        ev("1/q1", np.array([[0.0]]))


@pytest.mark.parametrize("src, pts, subexpr", [
    ("log(q1) + 1", [[-1.0]], "log(q1)"),
    ("2*sqrt(q1 - 1)", [[0.0], [4.0]], "sqrt(q1 - 1)"),
    ("q1 + 1/(q1 - 2)", [[2.0]], "1/(q1 - 2)"),
    ("(q1 - 3)^0.5", [[1.0]], "(q1 - 3)^0.5"),
    ("(-1)^0.5 + q1", [[1.0]], "(-1)^0.5"),
    ("q1 + 0^(0 - 1)", [[1.0]], "0^(0 - 1)"),
    ("1 - u", [[0.0]], "u"),
])
def test_compiled_evaluation_reports_domain_errors(src, pts, subexpr):
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse_expression(src), np.array(pts))
    assert err.value.subexpr == subexpr


def test_symbolic_derivative_polynomials():
    f = parse_expression("q1^3 - 2*q1*q2 + 4")
    d1 = f.derivative(0)
    pts = np.array([[1.5, -0.5], [0.0, 2.0]])
    np.testing.assert_allclose(eval_field(d1, pts),
                               3 * pts[:, 0] ** 2 - 2 * pts[:, 1])
    # every tree has a symbolic derivative, not only polynomials
    assert str(parse_expression("sin(q1)").derivative(0)) == "cos(q1)"
    # a folded negative constant prints as a parenthesized base
    assert str(parse_expression("q1*(-2)^q2").derivative(0)) == "(-2)^q2"


def test_grad_field_matches_fd():
    f = parse_expression("q1^2*q2 + q2^3")
    pts = np.array([[0.3, 0.7], [-1.0, 0.2]])
    g = grad_field(f, pts, 2)
    gfd = np.stack([central_difference(f, pts, i) for i in range(2)],
                   axis=-1)
    np.testing.assert_allclose(g, gfd, atol=1e-7)


# points away from every kink and domain edge of the sources below
RULE_POINTS = np.array([[0.7, 0.4], [1.3, 0.9], [0.4, 1.6]])


@pytest.mark.parametrize("src", [
    "sin(q1*q2)",
    "cos(q1^2 - q2)",
    "exp(-q1^2/4)*q2",
    "log(1 + q1^2*q2)",
    "sqrt(2 + q1*q2)",
    "tanh(2*q1 - q2)",
    "(q1^2 + 1)/(q1 - 3*q2)",
    "q2/(1 + q1)",
    "q1^-2 + q2^(-1)",
    "(2 + q1)^1.5 - q2^0.5",
    "(2 + q1^2)^q2",
    "2^(q1*q2)",
    "abs(q1 - 0.3*q2)",
    "min(q1, q2^2)",
    "max(q1*q2, 0.5)",
    "q2*sign(q1 - 2)",
])
def test_derivative_rules_match_central_differences(src):
    f = parse_expression(src)
    for i in range(2):
        d = f.derivative(i)
        got = evaluate(d, RULE_POINTS)
        np.testing.assert_allclose(got, central_difference(f, RULE_POINTS, i),
                                   rtol=1e-6, atol=1e-9, err_msg=str(d))
        # the canonical source of the derivative re-parses to the same field
        np.testing.assert_array_equal(
            evaluate(parse_expression(d.source), RULE_POINTS), got)


def test_derivative_outside_its_domain_raises():
    f = parse_expression("sqrt(q1^2)")
    assert evaluate(f, np.array([[0.0]]))[0] == 0.0
    with pytest.raises(EvalDomainError):
        grad_field(f, np.array([[0.5], [0.0]]), 1)


def _preset_fields(p):
    fields = [p.alpha, *p.b, *(e for row in p.sigma for e in row)]
    fields += [e for e in (p.U, p.c, p.g, p.G) if e is not None]
    return fields + list(p.l or ())


PRESETS = ("p1", "p1_tilted", "p2", "p3", "fk1d", "kpp1d", "kpp1d_cosc",
           "front2d")


def test_compile_matches_eval():
    """The compiled closure and the checked walker agree bit for bit on
    every preset field and every derivative."""
    rng = np.random.default_rng(0)
    for p in map(load_preset, PRESETS):
        lo, hi = p.box[:, 0], p.box[:, 1]
        for shape in ((40,), (3, 5), ()):
            pts = lo + rng.uniform(size=shape + (p.d,)) * (hi - lo)
            u = rng.uniform(size=shape)
            for f in _preset_fields(p):
                exprs = [f] + [f.derivative(i) for i in range(p.d)]
                for e in exprs:
                    want = eval_field(e, pts, u)
                    got = evaluate(e, pts, u)
                    assert got.shape == want.shape == shape
                    np.testing.assert_array_equal(got, want, err_msg=str(e))
                    np.testing.assert_array_equal(
                        np.broadcast_to(e.compile()(pts, u), shape), want)
            np.testing.assert_array_equal(
                evaluate_all(p.b, pts),
                np.stack([eval_field(e, pts) for e in p.b], axis=-1))
    f = parse_expression("exp(-q1^2) + 0.5*max(q1, q2)")
    pts = rng.normal(size=(40, 2))
    np.testing.assert_array_equal(f.compile()(pts), eval_field(f, pts))


def test_preset_derivatives_match_central_differences():
    rng = np.random.default_rng(1)
    for p in map(load_preset, PRESETS):
        lo, hi = p.box[:, 0], p.box[:, 1]
        pts = lo + rng.uniform(size=(25, p.d)) * (hi - lo)
        u = rng.uniform(size=25)
        for f in _preset_fields(p):
            np.testing.assert_allclose(
                grad_field(f, pts, p.d, u),
                np.stack([central_difference(f, pts, i, u)
                          for i in range(p.d)], axis=-1),
                rtol=1e-6, atol=1e-8, err_msg=f"{p.name}: {f}")


def test_compiled_variable_does_not_alias_points():
    pts = np.array([[1.0, 2.0]])
    out = evaluate(parse_expression("q2"), pts)
    out[0] = 7.0
    assert pts[0, 1] == 2.0


def test_run_trapped_reruns_only_the_trapped_step():
    """Steps 2 and 4 divide by zero under the trap; each runs again alone,
    checked, and the loop goes on inside a new trap until the body stops
    it at step 5.  The trap does not outlive the loop."""
    calls = []

    def body(k, checked):
        calls.append((k, checked))
        if k in (2, 4) and not checked:
            np.ones(1) / 0.0
        return k == 5

    run_trapped(8, body)
    assert calls == [(0, False), (1, False), (2, False), (2, True),
                     (3, False), (4, False), (4, True), (5, False)]
    assert np.geterr()["divide"] != "raise"


@settings(max_examples=60, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-3, 3))
def test_polynomial_eval_property(a, b, c, x):
    src = f"{a!r} + {b!r}*q1 + {c!r}*q1^2"
    got = ev(src, np.array([[x]]))[0]
    np.testing.assert_allclose(got, a + b * x + c * x * x,
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(0.1, 4))
def test_derivative_property(x, scale):
    f = parse_expression(f"{scale!r}*q1^3")
    d = f.derivative(0)
    np.testing.assert_allclose(eval_field(d, np.array([[x]]))[0],
                               3 * scale * x * x, rtol=1e-10, atol=1e-10)
