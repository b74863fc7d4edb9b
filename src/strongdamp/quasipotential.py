"""Minimum-action paths and the quasipotential.

The quasipotential between two points is the infimum of the path action
over all travel times T and all paths joining them.  At fixed T the
discrete action is minimized over the interior nodes (endpoints are hard
constraints) by action.minimize_path, the L-BFGS path driver shared with
the Laplace check and the front values.  From a rest point O the fixed-T
minimum does not increase in T (waiting at O is free), so one converged
solve at the top of the log-spaced T ladder is the result.  Otherwise the
whole ladder is solved and a bounded Brent search in log T
(scipy.optimize.minimize_scalar) runs around the best rung.

The action has two quadratic forms, "standard" and "alt", which minimize
to the same quasipotential.  check_action_equivalence solves both from the
same q_start and returns both results with their relative gap, so a
caller that wants one form and the check solves each form once.

When the drift has gradient structure (alpha b = -grad U, sigma sigma^T = I,
rotational part orthogonal to grad U), the quasipotential from the rest
point equals twice the potential drop; gradient_case_oracle exposes that
closed form for cross-checking the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .action import DiscretePath, minimize_path, node_gradient
from .contour import arc_length_resample, contour_polylines, \
    interp_columns, point_in_polygon
from .errors import ConfigError, NumericalError
from .expr import evaluate
from .fields import (ProblemDefinition, ProblemError, boundary_points_by_ray,
                     validate_hypotheses)

GRAD_TOL = 1e-6
H_MAX = 0.25          # segment step never coarser than this
DEFAULT_LADDER = (0.5, 64.0, 8)
LOG_T_TOL = 0.015     # xatol of the travel-time search, in log T


@dataclass
class MinActionResult:
    value: float
    path: DiscretePath
    T_star: float
    iterations: int
    grad_norm: float
    converged: bool


def _initial_points(q_start, q_end, init, seed, m: int) -> np.ndarray:
    if init is not None:
        # linear resampling onto m+1 uniform nodes
        pts = interp_columns(np.linspace(0.0, 1.0, m + 1),
                             np.linspace(0.0, 1.0, len(init)), init)
    else:
        t = np.linspace(0.0, 1.0, m + 1)[:, None]
        pts = (1.0 - t) * q_start + t * q_end
        if np.any(q_start != q_end):
            rng = np.random.default_rng(seed)
            pts[1:-1] += 1e-3 * rng.standard_normal(pts[1:-1].shape)
    pts[0] = q_start
    pts[-1] = q_end
    return pts


def _action_only(pts, costs, g_left, g_right):
    return float(np.sum(costs)), node_gradient(g_left, g_right, pin_end=True)


def minimize_action_fixed_T(p: ProblemDefinition, q_start, q_end, T: float,
                            *, N: int = 64, mode: str = "standard",
                            init: Optional[np.ndarray] = None,
                            seed: int = 0) -> MinActionResult:
    """Minimize the discrete action from q_start to q_end at fixed travel
    time T.

    Interior nodes are free; the segment count N is raised if needed so
    the time step stays at or below H_MAX.  init, when given, is an
    (M+1, d) array of node positions used as the starting path (resampled
    to the working resolution); otherwise a straight line with a small
    perturbation seeded by seed is used.  Success means the gradient
    sup-norm fell below GRAD_TOL * (1 + |value|); otherwise the best
    iterate is returned with converged=False.
    """
    q_start = p.point(q_start, "q_start")
    q_end = p.point(q_end, "q_end")
    for q in (q_start, q_end):
        if not p.in_box(q):
            raise ConfigError(
                f"endpoint {q} lies outside the validated box; the action "
                "there would rest on unchecked coefficients")
    if T <= 0:
        raise ConfigError("travel time must be positive")
    if N < 16:
        raise ConfigError("need at least 16 path segments")
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.ndim != 2 or init.shape[1] != p.d:
            raise ConfigError("init path must have shape (M+1, d)")
    m = max(N, int(math.ceil(T / H_MAX)))
    pts, res = minimize_path(p, T, _initial_points(q_start, q_end, init,
                                                   seed, m),
                             _action_only, mode, pin_end=True)
    value = float(res.fun)
    gnorm = float(np.max(np.abs(res.jac))) if res.jac.size else 0.0
    if not np.isfinite(value):
        raise NumericalError("action minimization diverged")
    return MinActionResult(
        value=value,
        path=DiscretePath(T=T, points=pts),
        T_star=T,
        iterations=int(res.nit),
        grad_norm=gnorm,
        converged=gnorm <= GRAD_TOL * (1.0 + abs(value)))


def quasipotential(p: ProblemDefinition, q_end, q_start=None, *,
                   mode: str = "standard", N: int = 64,
                   T_ladder=None, refine: bool = True,
                   init: Optional[np.ndarray] = None,
                   seed: int = 0) -> MinActionResult:
    """Infimum of the action over paths q_start -> q_end and over T.

    Solves the ladder's top rung first.  When q_start is O, O is a rest
    point and that solve converged, it is the result: from O no shorter T
    does better.  Otherwise scans the rest of the T ladder, then (unless
    refine is False) minimizes over log T between the neighbours of the
    best rung with scipy's bounded Brent search, warm-starting each of its
    solves from the best rung's path, and returns the best of all solves.
    """
    from scipy.optimize import minimize_scalar  # slow to import
    if q_start is None:
        q_start = p.O
    ladder = (np.geomspace(*DEFAULT_LADDER) if T_ladder is None
              else np.asarray(T_ladder, dtype=float))
    if ladder.ndim != 1 or ladder.size < 1 or np.any(ladder <= 0) \
            or np.any(np.diff(ladder) <= 0):
        raise ConfigError("T ladder must be positive and increasing")
    solve = partial(minimize_action_fixed_T, p, q_start, q_end, N=N,
                    mode=mode, seed=seed)

    # Waiting at a rest point O costs no action, so V_T(O, q_end) does not
    # increase in T: a converged top rung leaves no better T below it.
    top = solve(ladder[-1], init=init)
    if top.converged and np.array_equal(q_start, p.O) and p.O_is_rest_point:
        return top
    results = [solve(T, init=init) for T in ladder[:-1]] + [top]
    k = int(np.argmin([r.value for r in results]))
    if ladder.size == 1 or not refine:
        return results[k]

    warm = results[k].path.points

    def action_at(logT):
        results.append(solve(math.exp(logT), init=warm))
        return results[-1].value

    minimize_scalar(action_at, method="bounded", options={"xatol": LOG_T_TOL},
                    bounds=(math.log(ladder[max(k - 1, 0)]),
                            math.log(ladder[min(k + 1, ladder.size - 1)])))
    # min keeps the first of equal values: ties go to the earlier solve
    return min(results, key=lambda r: r.value)


def check_action_equivalence(p: ProblemDefinition, q_end, **cfg):
    """Quasipotential under both quadratic forms and their relative gap.

    Returns (standard, alt, relgap): the two MinActionResults of
    quasipotential(p, q_end, mode=..., **cfg), so both forms share
    q_start and every other keyword in cfg, and the relative gap of their
    values.  The two integrands weight the drift mismatch differently but
    minimize to the same value once T is free; the gap measures
    discretization and optimization error.
    """
    standard = quasipotential(p, q_end, mode="standard", **cfg)
    alt = quasipotential(p, q_end, mode="alt", **cfg)
    v1, v2 = standard.value, alt.value
    relgap = abs(v1 - v2) / max(abs(v1), abs(v2), 1e-30)
    return standard, alt, relgap


@dataclass
class BoundaryScan:
    V0: float
    q_star: np.ndarray
    index: int
    s: np.ndarray        # arc position of each boundary sample
    points: np.ndarray   # (n, d) boundary samples
    values: np.ndarray   # quasipotential at each sample


def _boundary_samples_2d(p: ProblemDefinition, n: int,
                         grid_n: int) -> np.ndarray:
    xs = np.linspace(p.box[0, 0], p.box[0, 1], grid_n)
    ys = np.linspace(p.box[1, 0], p.box[1, 1], grid_n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    vals = p.eval_phi(pts).reshape(grid_n, grid_n)
    polys = contour_polylines(vals, xs, ys, 0.0)
    if not polys:
        raise ProblemError("boundary of G not found inside the box")
    enclosing = [q for q in polys
                 if np.allclose(q[0], q[-1]) and point_in_polygon(p.O, q)]
    loop = (min(enclosing, key=lambda q: np.abs(q - p.O).max())
            if enclosing else max(polys, key=len))
    return arc_length_resample(loop, n)


def quasipotential_boundary(p: ProblemDefinition, boundary_samples: int = 32,
                            grid_n: int = 201, **cfg) -> BoundaryScan:
    """Scan the quasipotential over the boundary of G.

    Ties in the argmin are broken toward the smallest sample index.
    Consecutive samples warm-start each other, so the scan cost is close
    to one cold optimization plus cheap refinements.
    """
    if float(p.eval_phi(p.O[None, :])[0]) >= 0:
        raise ProblemError("rest point O must lie inside G (phi(O) < 0)")
    if p.d == 1:
        pts = boundary_points_by_ray(p, 2)
        pts = pts[np.argsort(pts[:, 0])]
    elif p.d == 2:
        pts = _boundary_samples_2d(p, boundary_samples, grid_n)
    else:
        pts = boundary_points_by_ray(p, boundary_samples)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])

    values = np.empty(len(pts))
    warm = None
    for i, q in enumerate(pts):
        r = quasipotential(p, q, init=warm, **cfg)
        values[i] = r.value
        warm = r.path.points
    k = int(np.argmin(values))
    return BoundaryScan(V0=float(values[k]), q_star=pts[k].copy(), index=k,
                        s=s, points=pts, values=values)


def gradient_case_oracle(p: ProblemDefinition, q) -> float:
    """Closed-form quasipotential 2*(U(q) - U(O)) for gradient problems.

    Valid only when the diffusion matrix is the identity and the drift
    decomposes as alpha b = -grad U + l with l orthogonal to grad U; these
    structural facts are re-checked on a sample before the value is
    returned.
    """
    q = p.point(q, "q")
    p.require("U")
    report = validate_hypotheses(p, samples=512, seed=0)
    if not report.passed:
        raise ProblemError(
            "hypothesis check failed: " + "; ".join(report.failures))
    sv_lo = report.metrics["sigma_min_sv"]
    sv_hi = report.metrics["sigma_max_sv"]
    if abs(sv_lo - 1.0) > 1e-8 or abs(sv_hi - 1.0) > 1e-8:
        raise ProblemError("closed form needs sigma sigma^T = identity")
    return float(2.0 * (evaluate(p.U, q[None, :])[0]
                        - evaluate(p.U, p.O[None, :])[0]))
