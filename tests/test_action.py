import numpy as np
import pytest

from strongdamp.action import (ControlSignal, DiscretePath,
                               SingularSigmaError, action_kernel,
                               control_cost, controlled_skeleton,
                               minimize_path, node_gradient, path_action,
                               path_action_alt, segment_costs,
                               segment_costs_grad)
from strongdamp.errors import ConfigError
from strongdamp.expr import EvalDomainError
from strongdamp.fields import load_preset, load_problem
from strongdamp.quasipotential import quasipotential


P1 = load_preset("p1")
P2 = load_preset("p2")
# correlated, non-polynomial, state-dependent sigma (d = r = 2)
CORRELATED = load_problem({
    "d": 2, "r": 2, "b": ["-q1 + 0.5*q2", "-q2 - sin(q1)"],
    "sigma": [["1 + 0.3*sin(q1)", "0.2*q2"], ["0", "exp(-q1^2/4)"]],
    "alpha": "1.5 + 0.5*tanh(q2)", "alpha0": 1.0,
    "O": [0.0, 0.0], "box": [[-2.0, 2.0], [-2.0, 2.0]],
})


def line_path(a, b, N, T=1.0):
    pts = np.linspace(a, b, N + 1)[:, None]
    return DiscretePath(T=T, points=pts)


def test_path_validation():
    with pytest.raises(ConfigError):
        DiscretePath(T=0.0, points=np.zeros((3, 1)))
    with pytest.raises(ConfigError):
        DiscretePath(T=1.0, points=np.zeros(3))
    with pytest.raises(ConfigError):
        ControlSignal(T=1.0, values=np.zeros((1, 1)))


def test_control_energy_budget():
    t = np.linspace(0, 1, 65)
    vals = np.sin(2 * np.pi * t)
    u = ControlSignal(T=1.0, values=vals)
    assert control_cost(u) == pytest.approx(0.25, rel=1e-3)


def test_constant_speed_segment_value():
    """For b = -q, alpha = sigma = 1 the integrand is |f' + f|^2 / 2 and a
    straight run from 0 to 1 in time T has the explicit midpoint value."""
    T, N = 2.0, 400
    f = line_path(0.0, 1.0, N, T)
    mids = 0.5 * (f.points[:-1, 0] + f.points[1:, 0])
    expect = 0.5 * np.sum((1.0 / T + mids) ** 2) * (T / N)
    assert path_action(P1, f) == pytest.approx(expect, rel=1e-12)


def test_standard_and_alt_agree_for_unit_friction():
    # with alpha = sigma = 1 both quadratic forms coincide identically
    f = line_path(-0.3, 0.9, 50)
    np.testing.assert_allclose(path_action(P1, f),
                               path_action_alt(P1, f), rtol=1e-14)


def test_driftfree_mode_closed_form():
    f = line_path(0.0, 1.0, 16, T=2.0)
    seg = segment_costs(P1, f, "driftfree")
    # 0.5 * int |f'|^2 for a straight line: 0.5 * T * (1/T)^2
    assert np.sum(seg) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ConfigError):
        segment_costs(P1, f, "bogus")


def test_rest_path_costs_nothing():
    pts = np.tile(P2.O, (20, 1))
    f = DiscretePath(T=1.0, points=pts)
    assert path_action(P2, f) == pytest.approx(0.0, abs=1e-15)


def test_singular_sigma_raises():
    p = load_problem({
        "d": 1, "r": 1, "b": ["-q1"], "sigma": [["q1"]], "alpha": "1",
        "alpha0": 1.0, "O": [0.0], "box": [[-2.0, 2.0]],
    })
    # segment midpoint lands exactly on the zero of sigma
    f = DiscretePath(T=1.0, points=np.array([[-0.1], [0.1], [0.3]]))
    with pytest.raises(SingularSigmaError):
        path_action(p, f)
    # an ill-conditioned rectangular sigma trips the condition bound
    p2 = load_problem({
        "d": 2, "r": 2, "b": ["-q1", "-q2"],
        "sigma": [["1", "0"], ["0", "1e-12"]], "alpha": "1",
        "alpha0": 1.0, "O": [0.0, 0.0], "box": [[-2.0, 2.0], [-2.0, 2.0]],
    })
    f2 = DiscretePath(T=1.0, points=np.array([[0.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(SingularSigmaError):
        path_action(p2, f2)


def test_segment_gradients_match_fd():
    rng = np.random.default_rng(3)
    pts = np.cumsum(rng.normal(0, 0.1, size=(7, 1)), axis=0)
    f = DiscretePath(T=0.7, points=pts)
    for mode in ("standard", "alt", "driftfree"):
        cost, g_left, g_right = segment_costs_grad(P2, f, mode)
        np.testing.assert_allclose(cost, segment_costs(P2, f, mode),
                                   rtol=1e-12)
        step = 1e-6
        for k in range(f.N):
            for (grad, node) in ((g_left, k), (g_right, k + 1)):
                fp = pts.copy()
                fp[node, 0] += step
                fm = pts.copy()
                fm[node, 0] -= step
                num = (segment_costs(P2, DiscretePath(T=0.7, points=fp),
                                     mode)[k]
                       - segment_costs(P2, DiscretePath(T=0.7, points=fm),
                                       mode)[k]) / (2 * step)
                assert grad[k, 0] == pytest.approx(num, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("mode", ["standard", "alt", "driftfree"])
def test_segment_gradients_state_dependent_sigma(mode):
    """The sigma term of the gradient, 2 (sigma^T w) . (dsigma/dq_j^T w),
    against central differences of segment_costs on a correlated,
    non-polynomial, state-dependent sigma (d = r = 2)."""
    p = CORRELATED
    rng = np.random.default_rng(5)
    pts = np.cumsum(rng.normal(0, 0.2, size=(6, 2)), axis=0)
    f = DiscretePath(T=0.8, points=pts)
    cost, g_left, g_right = segment_costs_grad(p, f, mode)
    np.testing.assert_allclose(cost, segment_costs(p, f, mode), rtol=1e-12)
    step = 1e-5
    for k in range(f.N):
        for grad, node in ((g_left, k), (g_right, k + 1)):
            for j in range(2):
                fp = pts.copy()
                fp[node, j] += step
                fm = pts.copy()
                fm[node, j] -= step
                num = (segment_costs(p, DiscretePath(T=0.8, points=fp),
                                     mode)[k]
                       - segment_costs(p, DiscretePath(T=0.8, points=fm),
                                       mode)[k]) / (2 * step)
                assert grad[k, j] == pytest.approx(num, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("pin_end", [True, False])
def test_path_driver_gradient_matches_fd(pin_end):
    """After one L-BFGS step on p2 (state-dependent friction) the driver's
    free-node gradient matches central differences of the same objective
    rebuilt from segment_costs: the action alone with both ends pinned,
    the action plus a terminal cost 3 (f_N - 0.5)^2 with a free end."""
    T, N = 1.5, 12
    t = np.linspace(0.0, 1.0, N + 1)[:, None]
    init = 0.2 + 0.9 * t + 0.1 * np.sin(3.0 * t)

    def body(pts, costs, g_left, g_right):
        grad = node_gradient(g_left, g_right, pin_end)
        value = float(np.sum(costs))
        if not pin_end:
            value += 3.0 * float(pts[-1, 0] - 0.5) ** 2
            grad[-1] += 6.0 * (pts[-1] - 0.5)
        return value, grad

    def objective(pts):
        value = float(np.sum(segment_costs(P2, DiscretePath(T=T, points=pts),
                                           "standard")))
        return value if pin_end else value + 3.0 * (pts[-1, 0] - 0.5) ** 2

    pts, res = minimize_path(P2, T, init, body, "standard",
                             pin_end=pin_end, options={"maxiter": 1})
    assert pts[0, 0] == init[0, 0]
    if pin_end:
        assert pts[-1, 0] == init[-1, 0]
    assert res.fun == pytest.approx(objective(pts), rel=1e-12)
    free = range(1, N if pin_end else N + 1)
    assert res.jac.shape == (len(free),)
    step = 1e-6
    for row, k in enumerate(free):
        fp = pts.copy()
        fp[k, 0] += step
        fm = pts.copy()
        fm[k, 0] -= step
        num = (objective(fp) - objective(fm)) / (2 * step)
        assert res.jac[row] == pytest.approx(num, rel=1e-5, abs=1e-8)
    assert np.max(np.abs(res.jac)) > 1e-3     # not at the minimizer yet


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1_tilted", "kpp1d",
                                  "correlated"])
@pytest.mark.parametrize("mode", ["standard", "alt", "driftfree"])
def test_kernel_matches_its_checked_rerun(name, mode):
    """The compiled kernel and its re-run on the checked evaluators give
    the same bytes, so a call that traps changes nothing but the error."""
    p = CORRELATED if name == "correlated" else load_preset(name)
    rng = np.random.default_rng(9)
    N = 12
    pts = p.O + np.cumsum(rng.normal(0, 0.2, size=(N + 1, p.d)), axis=0)
    kernel = action_kernel(p, 1.3, N, mode)
    for fast, checked in zip(kernel(pts), kernel.checked(pts)):
        assert fast.tobytes() == checked.tobytes()


@pytest.mark.parametrize("mode, residual", [
    ("standard", lambda alpha, df, b: alpha * df - b),
    ("alt", lambda alpha, df, b: df - alpha * b),
    ("driftfree", lambda alpha, df, b: alpha * df),
], ids=["standard", "alt", "driftfree"])
def test_constant_sigma_costs_match_direct_quadratic_form(mode, residual):
    """A constant, correlated sigma is squared once per kernel; each form's
    costs still equal (h/2) y^T a^{-1} y with its residual y written out
    and a inverted at every midpoint."""
    p = load_problem({
        "d": 2, "r": 2, "b": ["-q1 + 0.5*q2", "-q2 - sin(q1)"],
        "sigma": [["1", "0.3"], ["0.2", "2"]],
        "alpha": "1.5 + 0.5*tanh(q2)", "alpha0": 1.0,
        "O": [0.0, 0.0], "box": [[-2.0, 2.0], [-2.0, 2.0]],
    })
    rng = np.random.default_rng(4)
    N, T = 10, 0.9
    pts = np.cumsum(rng.normal(0, 0.2, size=(N + 1, 2)), axis=0)
    mids = 0.5 * (pts[:-1] + pts[1:])
    y = residual(p.eval_alpha(mids)[:, None], (pts[1:] - pts[:-1]) / (T / N),
                 p.eval_b(mids))
    a_inv = np.linalg.inv(p.eval_a(mids))
    expect = 0.5 * (T / N) * np.einsum("ki,kij,kj->k", y, a_inv, y)
    costs, _, _ = action_kernel(p, T, N, mode)(pts)
    np.testing.assert_allclose(costs, expect, rtol=1e-12)


def test_solve_names_the_failing_subexpression():
    """A path into q1 < -0.2 traps inside the kernel; its checked re-run
    reports the friction's square root."""
    p = load_problem({
        "d": 1, "r": 1, "b": ["-q1"], "sigma": [["1"]],
        "alpha": "1 + sqrt(q1 + 0.2)", "alpha0": 0.5, "O": [0.0],
        "box": [[-2.0, 2.0]],
    })
    with pytest.raises(EvalDomainError, match=r"sqrt\(q1 \+ 0\.2\)"):
        quasipotential(p, [-1.0], T_ladder=[1.0, 2.0])


def test_solve_raises_on_singular_sigma():
    """A constant ill-conditioned sigma is refused once per solve, a
    state-dependent one at the iterate whose midpoint hits its zero."""
    def body(pts, costs, g_left, g_right):
        return float(np.sum(costs)), node_gradient(g_left, g_right, True)

    ill = load_problem({
        "d": 2, "r": 2, "b": ["-q1", "-q2"],
        "sigma": [["1", "0"], ["0", "1e-12"]], "alpha": "1",
        "alpha0": 1.0, "O": [0.0, 0.0], "box": [[-2.0, 2.0], [-2.0, 2.0]],
    })
    with pytest.raises(SingularSigmaError):
        minimize_path(ill, 1.0, np.linspace([0.0, 0.0], [0.5, 0.5], 9),
                      body, "standard", pin_end=True)
    vanishing = load_problem({
        "d": 1, "r": 1, "b": ["-q1"], "sigma": [["q1"]], "alpha": "1",
        "alpha0": 1.0, "O": [0.0], "box": [[-2.0, 2.0]],
    })
    with pytest.raises(SingularSigmaError, match="at path point"):
        minimize_path(vanishing, 1.0, np.array([[-0.1], [0.1], [0.3]]),
                      body, "standard", pin_end=True)


def test_control_identity_on_skeleton():
    """Driving the skeleton with u and measuring the action of the result
    recovers half the control energy (the control is cost-optimal for its
    own trajectory)."""
    t = np.linspace(0, 1.5, 1025)
    u = ControlSignal(T=1.5, values=0.3 * np.sin(2.0 * t) - 0.1)
    f = controlled_skeleton(P2, u, P2.O)
    assert path_action(P2, f) == pytest.approx(control_cost(u),
                                                     abs=2e-4)


def test_skeleton_at_zero_control_stays_at_rest():
    u = ControlSignal(T=1.0, values=np.zeros(33))
    f = controlled_skeleton(P2, u, P2.O)
    assert np.max(np.abs(f.points - P2.O)) < 1e-12
