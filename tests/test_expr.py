import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdamp.expr import (EvalDomainError, ExpressionSyntaxError,
                             ScalarExpr, _codegen, compiled_all, eval_field,
                             evaluate, evaluate_all, grad_field,
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
    """The generated code and the checked walker agree bit for bit on
    every preset field and every derivative, alone and in one stack per
    preset of every field and every derivative."""
    rng = np.random.default_rng(0)
    for p in map(load_preset, PRESETS):
        lo, hi = p.box[:, 0], p.box[:, 1]
        for shape in ((40,), (3, 5), ()):
            pts = lo + rng.uniform(size=shape + (p.d,)) * (hi - lo)
            u = rng.uniform(size=shape)
            stack = [e for f in _preset_fields(p)
                     for e in [f] + [f.derivative(i) for i in range(p.d)]]
            cols = compiled_all(stack)(pts, u)
            assert cols.shape == shape + (len(stack),)
            for k, e in enumerate(stack):
                want = eval_field(e, pts, u)
                got = evaluate(e, pts, u)
                assert got.shape == want.shape == shape
                np.testing.assert_array_equal(got, want, err_msg=str(e))
                np.testing.assert_array_equal(
                    np.broadcast_to(compiled_all([e])(pts, u)[..., 0], shape),
                    want)
                np.testing.assert_array_equal(cols[..., k], want,
                                              err_msg=str(e))
            np.testing.assert_array_equal(
                evaluate_all(p.b, pts),
                np.stack([eval_field(e, pts) for e in p.b], axis=-1))
    f = parse_expression("exp(-q1^2) + 0.5*max(q1, q2)")
    pts = rng.normal(size=(40, 2))
    np.testing.assert_array_equal(compiled_all([f])(pts)[..., 0],
                                  eval_field(f, pts))


def test_stack_shares_sub_expressions():
    """p2's action stack (alpha, b, their derivatives) computes cos(q1)
    once, not four times."""
    p = load_preset("p2")
    stack = [p.alpha, *p.b, p.alpha.derivative(0), p.b[0].derivative(0)]
    assert _codegen([f.root for f in stack]).count("cos(") == 1


def test_stack_keeps_the_sign_of_zero_and_infinite_numbers():
    """('num', 0.0) == ('num', -0.0) as tuples, but sin(-0.0) is -0.0;
    and a literal beyond the double range reads as inf."""
    fs = [ScalarExpr(("call", "sin", (("num", z),)), f"sin({z})")
          for z in (0.0, -0.0)] + [parse_expression("1e999 - q1")]
    pts = np.zeros((2, 1))
    got = compiled_all(fs)(pts)
    np.testing.assert_array_equal(
        got, np.stack([eval_field(f, pts) for f in fs], axis=-1))
    assert np.signbit(got[0, :2]).tolist() == [False, True]


def test_derivative_folds_minus_one_times_into_a_negation():
    """The quotient rule's -1*(2 + cos(q1)) prints, and evaluates, as a
    negation, which is the same double for every non-NaN value."""
    assert "-1*" not in str(
        parse_expression("-q1/(2 + cos(q1))").derivative(0))


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


@pytest.mark.parametrize("src", ["u", "q1 + u", "sin(u)"])
def test_missing_u_names_the_variable(src):
    with pytest.raises(EvalDomainError, match="variable 'u' has no value"):
        evaluate_all([parse_expression("q1"), parse_expression(src)],
                     np.zeros((2, 1)))


def test_compiled_all_explains_its_own_trap():
    """Called under an outer trap, compiled_all(fs) gives the walker's
    values where the generated code is defined, and where not it re-runs
    on the walker, which raises EvalDomainError naming the sub-expression;
    for the one-field view and for the stack."""
    pts = np.array([[0.5, 2.0], [3.0, 1.0]])
    log_q1 = parse_expression("log(q1) + q2")
    for fs in ([log_q1], [parse_expression("q2^2"), log_q1,
                          parse_expression("3")]):
        run = compiled_all(fs)
        want = np.stack([eval_field(f, pts) for f in fs], axis=-1)
        with np.errstate(divide="raise", invalid="raise"):
            np.testing.assert_array_equal(run(pts), want)
            with pytest.raises(EvalDomainError, match=r"'log\(q1\)'"):
                run(np.array([[-1.0, 2.0]]))


def test_run_trapped_reruns_only_the_trapped_step():
    """Steps 2 and 4 divide by zero under the trap; each runs again alone,
    outside it, and the loop goes on inside a new trap until the body
    stops it at step 5.  The trap does not outlive the loop."""
    calls = []

    def body(k):
        trapped = np.geterr()["divide"] == "raise"
        calls.append((k, trapped))
        if k in (2, 4) and trapped:
            np.ones(1) / 0.0
        return k == 5

    run_trapped(8, body)
    assert calls == [(0, True), (1, True), (2, True), (2, False),
                     (3, True), (4, True), (4, False), (5, True)]
    assert np.geterr()["divide"] != "raise"


def test_run_trapped_field_outside_its_domain_names_it_once():
    """A generated field that leaves its domain inside the loop's trap
    re-runs on the walker within the same call: the body runs once, and
    the error names the sub-expression."""
    run = compiled_all([parse_expression("q2 + sqrt(q1 - 1)")])
    calls = []

    def body(k):
        calls.append(k)
        run(np.array([[0.5, 2.0]]))

    with pytest.raises(EvalDomainError, match=r"'sqrt\(q1 - 1\)'"):
        run_trapped(3, body)
    assert calls == [0]


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
