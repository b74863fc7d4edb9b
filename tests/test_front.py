import heapq

import numpy as np
import pytest

from strongdamp import front
from strongdamp.action import action_kernel
from strongdamp.errors import ConfigError, NumericalError
from strongdamp.fields import ProblemError, load_preset, load_problem
from strongdamp.front import (FrontContour, extract_front, fit_front_speed,
                              front_field_constant, front_field_path,
                              front_field_prefix, g0_samples,
                              riemannian_distance)


FRONT2D = load_preset("front2d")
KPP1D = load_preset("kpp1d")

OCTILE_OVER = np.sqrt(4 - 2 * np.sqrt(2))   # 8-neighbor metric worst case


def seed_problem(alpha_expr):
    """d=1 problem whose initial support is a tight interval around 0."""
    return load_problem({
        "d": 1, "r": 1, "b": ["0"], "sigma": [["1"]], "alpha": alpha_expr,
        "alpha0": 1.0, "O": [0.0], "box": [[-1.0, 1.0]],
        "g": "max(0, 1 - (q1/0.001)^2)", "c": "1 - u",
    })


def test_distance_constant_friction_octile_bounds():
    rho = riemannian_distance(FRONT2D, spacing=0.05)
    coords = rho.node_coords().reshape(-1, 2)
    vals = rho.values.ravel()
    true = np.linalg.norm(coords, axis=1)
    far = true > 0.5
    ratio = vals[far] / true[far]
    # exact along axes, at most the 8-neighbor overestimate diagonally
    assert ratio.min() >= 1.0 - 5e-2      # seed disk has radius 0.02
    assert ratio.max() <= OCTILE_OVER + 1e-9
    on_axis = (np.abs(coords[:, 1]) < 1e-12) & far
    np.testing.assert_allclose(vals[on_axis] / true[on_axis], 1.0, atol=0.05)


def test_distance_quadrature_oracle_1d():
    """With a point-like seed, the weighted distance reduces to the line
    integral of alpha: for alpha = (1 + q1^2)^2 it is
    |x + 2x^3/3 + x^5/5|."""
    p = seed_problem("(1 + q1^2)^2")
    rho = riemannian_distance(p, spacing=0.002)
    xs = rho.axes()[0]
    expect = np.abs(xs + 2 * xs**3 / 3 + xs**5 / 5)
    far = np.abs(xs) > 0.1
    np.testing.assert_allclose(rho.values[far], expect[far], rtol=5e-3)


def test_distance_scales_with_friction():
    a = riemannian_distance(seed_problem("1"), spacing=0.002)
    b = riemannian_distance(seed_problem("4"), spacing=0.002)
    xs = a.axes()[0]
    far = np.abs(xs) > 0.1
    np.testing.assert_allclose(b.values[far], 4 * a.values[far], rtol=1e-6)


def test_grid_front_matches_path_front_at_heavy_friction():
    """Grid distance and path optimization minimize the same drift-free
    action: at constant alpha = 4, c = 1, t = 1 the constant-rate field
    c t - rho^2/(2t) at q = 1 equals the path value, about
    1 - (4 * 0.9)^2 / 2 = -5.48 for the seed |q| < 0.1, within 5%."""
    p = load_problem({
        "d": 1, "r": 1, "b": ["0"], "sigma": [["1"]], "alpha": "4",
        "alpha0": 1.0, "O": [0.0], "box": [[-4.0, 4.0]],
        "g": "max(0, 1 - q1^2/0.01)", "c": "1 - u",
    })
    t = 1.0
    rho = riemannian_distance(p, spacing=0.01)
    grid = front_field_constant(rho, c=1.0, t=t)
    xs = grid.axes()[0]
    at_q = float(np.interp(1.0, xs, grid.values))
    path = front_field_path(p, [1.0], t, seed=0)
    assert at_q == pytest.approx(-5.48, rel=0.02)
    assert path.value == pytest.approx(at_q, rel=0.05)


def reference_distance(p, field):
    """Textbook heapq Dijkstra on the 8-neighbour grid of `field`, with each
    edge weighed on its own as alpha(mid) * |dq|_{a(mid)^-1}."""
    X = field.node_coords()
    n1, n2 = field.values.shape
    dist = np.full((n1, n2), np.inf)
    heap = [(0.0, idx) for idx in zip(*np.nonzero(p.eval_g(X) > 0))]
    for _, idx in heap:
        dist[idx] = 0.0
    while heap:
        du, (i, j) = heapq.heappop(heap)
        if du > dist[i, j]:
            continue
        for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1),
                       (-1, 0), (0, -1), (-1, -1), (-1, 1)):
            k, m = i + di, j + dj
            if not (0 <= k < n1 and 0 <= m < n2):
                continue
            mid = 0.5 * (X[i, j] + X[k, m])[None, :]
            dq = X[k, m] - X[i, j]
            w = p.eval_alpha(mid)[0] * np.sqrt(
                dq @ np.linalg.solve(p.eval_a(mid)[0], dq))
            if du + w < dist[k, m]:
                dist[k, m] = du + w
                heapq.heappush(heap, (du + w, (k, m)))
    return dist


def test_distance_matches_reference_dijkstra():
    """State-dependent friction and a correlated diffusion tensor, where
    every edge has its own weight."""
    p = load_problem({
        "d": 2, "r": 2, "b": ["0", "0"], "sigma": [["1", "0.3"], ["0", "0.8"]],
        "alpha": "1 + 0.5*q1^2 + 0.25*q2", "alpha0": 0.5, "O": [0.0, 0.0],
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
        "g": "max(0, 0.05 - q1^2 - q2^2)", "c": "1 - u",
    })
    rho = riemannian_distance(p, spacing=0.1)
    assert rho.values.shape == (21, 21) and np.all(np.isfinite(rho.values))
    np.testing.assert_allclose(rho.values, reference_distance(p, rho),
                               rtol=1e-12, atol=0)


def test_distance_requires_seeded_support():
    with pytest.raises(ProblemError):
        riemannian_distance(load_preset("p1"), spacing=0.1)


def test_front_field_constant_guards():
    rho = riemannian_distance(KPP1D, spacing=0.05)
    with pytest.raises(ConfigError):
        front_field_constant(rho, c=0.0, t=1.0)
    with pytest.raises(ConfigError):
        front_field_constant(rho, c=1.0, t=-1.0)
    field = front_field_constant(rho, c=1.0, t=1.0)
    with pytest.raises(ConfigError):
        front_field_constant(field, c=1.0, t=1.0)   # not a distance field


def test_extract_front_linear_crossing():
    from strongdamp.front import GridField
    field = GridField(origin=np.array([0.0]), spacing=0.25,
                      values=np.linspace(-1, 1, 9), kind="R")
    fc = extract_front(field, level=0.0)
    assert fc.points.shape == (1, 1)
    assert fc.points[0, 0] == pytest.approx(1.0)    # -1 + 4 * 0.25 * 2
    flat = GridField(origin=np.array([0.0]), spacing=0.25,
                     values=np.ones(9), kind="R")
    with pytest.raises(NumericalError):
        extract_front(flat)


def test_fit_front_speed_synthetic():
    def ring(rad):
        ang = np.linspace(0, 2 * np.pi, 33)
        return FrontContour(level=0.0, points=np.column_stack(
            [rad * np.cos(ang), rad * np.sin(ang)]))
    contours = [(t, ring(0.7 * t)) for t in (1.0, 2.0, 3.0)]
    for stat in ("max", "mean"):
        sp = fit_front_speed(contours, center=np.zeros(2), stat=stat)
        assert sp.speed == pytest.approx(0.7, rel=1e-9)
    with pytest.raises(ConfigError):
        fit_front_speed(contours, center=np.zeros(2), stat="median")


def test_kpp_front_position_matches_grid_front():
    """The variational front at time t sits where c*t = rho^2/(2t); for
    unit rate and friction that is radius t*sqrt(2) from a point seed."""
    rho = riemannian_distance(KPP1D, spacing=0.02)
    t = 1.5
    field = front_field_constant(rho, c=1.0, t=t)
    fc = extract_front(field, level=0.0)
    radii = np.abs(fc.points[:, 0])
    assert radii.max() == pytest.approx(t * np.sqrt(2), rel=0.05)


def test_prefix_value_is_clipped_path_value():
    samples = g0_samples(KPP1D)
    for t, q in ((0.8, [2.0]), (1.6, [1.0])):
        path = front_field_path(KPP1D, q, t, N=32, restarts=3, seed=0,
                                samples=samples)
        pref = front_field_prefix(KPP1D, q, t, N=32, restarts=6, seed=0,
                                  samples=samples)
        assert pref.value <= 1e-9
        assert pref.value == pytest.approx(min(path.value, 0.0), abs=5e-3)


@pytest.mark.parametrize("fn", [front_field_path, front_field_prefix])
@pytest.mark.parametrize("q", [[], [1.0, 2.0]], ids=["d0", "d2"])
def test_front_point_of_wrong_dimension_is_config_error(fn, q):
    with pytest.raises(ConfigError, match=r"shape \(1,\)"):
        fn(KPP1D, q, 1.0)


@pytest.mark.parametrize("fn, q, t", [
    (front_field_path, 2.0, 1.2),
    (front_field_prefix, 2.0, 1.2),
    (front_field_prefix, 3.0, 2.0),
], ids=["path", "prefix_q2", "prefix_q3"])
def test_front_objective_gradient_matches_central_differences(
        monkeypatch, fn, q, t):
    """After three L-BFGS iterations, where the objective is not stationary,
    its gradient matches central differences at every free node: in path
    mode and at an interior active prefix, with variable rate and
    friction."""
    p = load_problem({    # kpp1d_cosc at friction 1 + 0.5 q1^2
        "d": 1, "r": 1, "b": ["0"], "sigma": [["1"]],
        "alpha": "1 + 0.5*q1^2", "alpha0": 1.0, "O": [0.0], "beta": 0.0,
        "box": [[-4.0, 4.0]], "g": "max(0, 1 - q1^2/0.01)",
        "c": "(1 + 0.5*cos(q1))*(1 - u)",
    })
    N = 32
    monkeypatch.setattr(front, "LBFGS_FRONT", {"maxiter": 3})
    seen, solve = [], front.minimize_path

    def spy(*args, **kwargs):
        pts, res = solve(*args, **kwargs)
        seen.append((args[3], pts))
        return pts, res
    monkeypatch.setattr(front, "minimize_path", spy)
    fn(p, [q], t, N=N, restarts=1)
    objective, pts = seen[0]
    kernel = action_kernel(p, t, N, "driftfree")

    def value(x):
        return objective(x, *kernel(x))[0]

    if fn is front_field_prefix:
        costs = kernel(pts)[0]
        c = p.eval_c(pts, u=0.0)
        partial = np.cumsum(0.5 * (t / N) * (c[:-1] + c[1:]) - costs)
        assert 0 < np.argmin(np.concatenate([[0.0], partial])) < N
    grad = objective(pts, *kernel(pts))[1]
    fd = np.zeros_like(grad)
    step = 1e-6
    for i in range(1, N + 1):
        up, down = pts.copy(), pts.copy()
        up[i, 0] += step
        down[i, 0] -= step
        fd[i - 1, 0] = (value(up) - value(down)) / (2 * step)
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-7)


def test_g0_samples_guard():
    with pytest.raises(ProblemError):
        g0_samples(load_preset("p1"))
    s = g0_samples(KPP1D)
    assert np.all(KPP1D.eval_g(s) > 0)

