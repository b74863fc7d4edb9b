import re

import numpy as np
import pytest

from strongdamp import fields
from strongdamp.errors import ConfigError
from strongdamp.expr import EvalDomainError
from strongdamp.fields import (ProblemError, boundary_points_by_ray,
                               box_samples, inward_normals, load_preset,
                               load_problem, validate_hypotheses)
from strongdamp.quasipotential import gradient_case_oracle


BASE = {
    "d": 1, "r": 1, "b": ["-q1"], "sigma": [["1"]], "alpha": "1",
    "alpha0": 1.0, "O": [0.0], "box": [[-2.0, 2.0]],
}


def make(**over):
    spec = dict(BASE)
    spec.update(over)
    return load_problem(spec)


def test_presets_load_and_validate():
    for name in ("p1", "p2", "p3", "p1_tilted", "front2d", "kpp1d",
                 "kpp1d_cosc", "fk1d"):
        p = load_preset(name)
        rep = validate_hypotheses(p, samples=500, seed=0)
        assert rep.passed, f"{name}: {rep.failures}"


def test_sigma_derivative_metric_is_exact():
    """max |dsigma/dq| of sigma = 1 + 0.3 sin(q1) is 0.3, reached at the
    sampled equilibrium O = 0."""
    p = make(sigma=[["1 + 0.3*sin(q1)"]])
    rep = validate_hypotheses(p, samples=200, seed=0)
    assert rep.metrics["sigma_derivative_max"] == 0.3


def test_unknown_preset():
    with pytest.raises(ProblemError):
        load_preset("nope")


def test_load_problem_rejects_bad_specs():
    with pytest.raises(ProblemError, match="unknown problem keys"):
        make(extra=1)
    with pytest.raises(ProblemError, match="missing problem keys"):
        load_problem({"d": 1})
    with pytest.raises(ProblemError):
        make(beta=0.5)          # beta must stay below 1/2
    with pytest.raises(ProblemError):
        make(beta=-0.1)
    with pytest.raises(ProblemError):
        make(d=0)
    with pytest.raises(ProblemError):
        make(O=[0.0, 0.0])      # O must match d
    with pytest.raises(ProblemError):
        make(box=[[2.0, -2.0]])
    with pytest.raises(ProblemError):
        make(sigma=[["1", "0"]], r=1)


@pytest.mark.parametrize("over", [{"box": [[-np.inf, np.inf]]},
                                  {"box": [[-2.0, np.inf]]},
                                  {"alpha0": np.inf}])
def test_load_problem_rejects_non_finite_box_and_alpha0(over):
    """An infinite box passed every in_box check and broke box sampling."""
    with pytest.raises(ProblemError, match="finite"):
        make(**over)


@pytest.mark.parametrize("over, what", [
    ({"b": ["-q1 + u"]}, "b[0]"),
    ({"sigma": [["1 + 0*u"]]}, "sigma[0][0]"),
    ({"alpha": "1 + u^2"}, "alpha"),
    ({"l": ["u"]}, "l[0]"),
], ids=["b", "sigma", "alpha", "l"])
def test_only_the_reaction_rate_may_reference_u(over, what):
    """Every field but c is a function of q alone, checked at load."""
    with pytest.raises(ConfigError, match=rf"^field {re.escape(what)} may "
                       "not reference u$"):
        make(**over)
    assert load_preset("kpp1d").c.uses_u
    assert make(c="1 - u").c.uses_u


def test_undeclared_field_is_named():
    p = make()
    q = np.zeros((1, 1))
    for key, call in (("U", lambda q: gradient_case_oracle(p, q[0])),
                      ("c", lambda q: p.eval_c(q, 0.0)),
                      ("g", p.eval_g), ("G", p.eval_phi)):
        with pytest.raises(ProblemError,
                           match=f"^problem declares no field {key}$"):
            call(q)


@pytest.mark.parametrize("name", ["p1", "p3", "front2d"])
def test_constant_friction_is_its_own_maximum(name, monkeypatch):
    """A constant alpha is alpha_max bit for bit, without a box sample."""
    def no_sample(*args, **kwargs):
        raise AssertionError("alpha_max sampled a constant friction")

    monkeypatch.setattr(fields, "box_samples", no_sample)
    p = load_preset(name)
    assert p.alpha_const is not None
    assert p.alpha_max == p.alpha_const


def test_varying_friction_maximum_is_sampled():
    assert load_preset("p2").alpha_max == 3.0


def test_field_evaluation_shapes():
    p = load_preset("p2")
    pts = np.linspace(-1, 1, 9)[:, None]
    assert p.eval_b(pts).shape == (9, 1)
    assert p.eval_alpha(pts).shape == (9,)
    assert p.eval_sigma(pts).shape == (9, 1, 1)
    np.testing.assert_allclose(p.eval_alpha(pts), 2 + np.cos(pts[:, 0]))


def test_field_domain_errors_name_the_subexpression():
    p = make(b=["-q1 + 1/(q1 - 1)"], G="log(q1 + 1) - 1")
    inside = np.array([[0.0], [0.5]])
    assert p.eval_b(inside).shape == (2, 1)
    with pytest.raises(EvalDomainError) as err:
        p.eval_b(np.array([[0.0], [1.0]]))
    assert err.value.subexpr == "1/(q1 - 1)"
    with pytest.raises(EvalDomainError) as err:
        p.eval_phi(np.array([[0.5], [-2.0]]))
    assert err.value.subexpr == "log(q1 + 1)"


def test_alpha_max_covers_box():
    p = load_preset("p2")
    pts = box_samples(p.box, 2000, seed=1)
    assert p.eval_alpha(pts).max() <= p.alpha_max + 1e-12


def test_validate_flags_violations():
    # friction dips below its declared floor inside the box
    p = make(alpha="1 + q1", alpha0=1.0)
    rep = validate_hypotheses(p, samples=500, seed=0)
    assert not rep.passed
    assert any("alpha0" in f or "friction" in f for f in rep.failures)

    # singular diffusion
    p = make(sigma=[["q1"]])
    rep = validate_hypotheses(p, samples=500, seed=0)
    assert not rep.passed

    # declared potential inconsistent with the drift
    p = make(b=["1 - q1"], U="q1^2/2")
    rep = validate_hypotheses(p, samples=500, seed=0)
    assert not rep.passed
    assert any("grad U" in f or "residual" in f for f in rep.failures)

    # outward drift on the domain boundary
    p = make(b=["q1"], G="q1^2 - 1")
    rep = validate_hypotheses(p, samples=500, seed=0)
    assert not rep.passed
    assert any("inward" in f for f in rep.failures)

    # O is no rest point: b(O) = 0.5
    p = make(b=["-q1 + 0.5"])
    rep = validate_hypotheses(p, samples=500, seed=0)
    assert not rep.passed and rep.metrics["b_at_O"] == 0.5
    assert any("not a rest point" in f and "0.5" in f for f in rep.failures)


def test_box_samples_deterministic_and_inside():
    box = np.array([[-1.0, 3.0], [0.0, 2.0]])
    a = box_samples(box, 100, seed=7)
    b = box_samples(box, 100, seed=7)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (100, 2)
    assert np.all(a >= box[:, 0]) and np.all(a <= box[:, 1])


def _ellipsoid(semi_axes):
    """A drift-free problem whose G is the ellipsoid sum (qi/ai)^2 < 1."""
    d = len(semi_axes)
    eye = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    return load_problem({
        "d": d, "r": d, "b": ["0"] * d, "sigma": eye, "alpha": "1",
        "alpha0": 1.0, "O": [0.0] * d, "box": [[-3.0, 3.0]] * d,
        "G": " + ".join(f"(q{i + 1}/{a})^2" for i, a in enumerate(semi_axes))
             + " - 1"})


@pytest.mark.parametrize("p, semi_axes", [
    (load_preset("p3"), (1.0, 1.0)),
    (_ellipsoid((2.0, 0.5)), (2.0, 0.5)),
    (_ellipsoid((1.5, 1.5, 1.5)), (1.5, 1.5, 1.5)),
], ids=["p3_unit_circle", "ellipse", "sphere_d3"])
def test_boundary_rays_and_normals(p, semi_axes):
    """Each ray point sits at the closed-form crossing of its direction u,
    the radius 1 / |u / a| of the ellipsoid with semi-axes a about O = 0."""
    pts = boundary_points_by_ray(p, 16)
    assert pts.shape == (16, p.d)
    r = np.linalg.norm(pts, axis=1)
    u = pts / r[:, None]
    exact = 1.0 / np.linalg.norm(u / np.asarray(semi_axes), axis=1)
    np.testing.assert_allclose(r, exact, rtol=0, atol=1e-12)
    nrm = inward_normals(p, pts)
    np.testing.assert_allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-9)
    # inward means pointing back toward the origin here
    assert np.all(np.sum(nrm * pts, axis=1) < 0)


def test_exit_domain_membership():
    p = load_preset("p1")
    inside = p.eval_phi(np.array([[0.0], [0.9]]))
    outside = p.eval_phi(np.array([[1.1], [-2.0]]))
    assert np.all(inside < 0) and np.all(outside > 0)
