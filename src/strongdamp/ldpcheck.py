"""Convergence diagnostics for the small-mass / small-noise machinery.

Three independent checks:

* h_eps_scaling: the exponentially-weighted stochastic convolution shrinks
  like a power of eps; the ladder estimates E sup_t |H| per rung on a
  common coarse grid and fits the log-log slope.
* controlled_convergence: trajectories driven by a fixed control approach
  the deterministic skeleton flow as eps decreases.
* laplace_check: -eps log E exp(-cost/eps) against the variational value
  min over paths of (terminal cost + action), the two sides computed by
  unrelated machinery (Monte Carlo vs path optimization).

path_values is the one Monte Carlo path loop.  The three checks and
front.feynman_kac_bound reduce its (M,) array of per-path values once
(math.fsum for a mean, logsumexp for a log mean), so the batch split
changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import logsumexp

from .action import ControlSignal, DiscretePath, controlled_skeleton, \
    minimize_path, node_gradient
from .contour import interp_columns
from .errors import ConfigError, NumericalError
from .expr import ScalarExpr, evaluate, grad_field, q_field
from .fields import ProblemDefinition
from .sde import NoisePath, SimParams, check_ladder, default_step, \
    simulate_inertial, snap_step, stochastic_convolution

# Default gates of `verify` and of acceptance criteria 4 and 9
H_EXPONENT_RANGE = (0.3, 0.7)
H_R2_MIN = 0.9
LAPLACE_GAP_MAX = 0.25


@dataclass
class ScalingFit:
    eps_values: np.ndarray
    metric_values: np.ndarray
    fitted_exponent: float
    r_squared: float


def _fit_loglog(eps_values: np.ndarray, metrics) -> ScalingFit:
    metrics = np.asarray(metrics, dtype=float)
    if np.any(metrics <= 0):
        raise NumericalError(
            "degenerate scaling fit: a rung produced a zero metric")
    x = np.log(eps_values)
    y = np.log(metrics)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return ScalingFit(eps_values=eps_values, metric_values=metrics,
                      fitted_exponent=float(slope), r_squared=r2)


def path_values(p: ProblemDefinition, sp: SimParams, q0, p0, M: int,
                seed: int, first_id: int, value, control=None) -> np.ndarray:
    """(M,) array of value(tr, noise), one number per row of each batch
    Trajectory, over M inertial paths from (q0, p0) under control, on
    stream ids first_id, ..., first_id + M - 1, in batches of
    batch_rows(sp.steps) rows.  ConfigError unless M >= 1, before any
    path is drawn."""
    if M < 1:
        raise ConfigError(f"need at least one sample path, got M = {M}")
    vals = np.empty(M)
    for start, noise in NoisePath.batches(seed, M, sp.steps, p.r, sp.h,
                                          first_id):
        v = value(simulate_inertial(p, sp, q0, p0, noise, control), noise)
        vals[start:start + v.size] = v
    return vals


def _sim_step(p: ProblemDefinition, eps: float, T: float) -> float:
    """default_step snapped to divide T into at least 64 steps."""
    return snap_step(T, default_step(p, eps), min_steps=64)


def h_eps_scaling(p: ProblemDefinition, eps_ladder, M: int, T: float,
                  seed: int, k: Optional[int] = None) -> ScalingFit:
    """Scaling exponent of the stochastic convolution over an eps ladder.

    Per rung, M trajectories started at rest from O are integrated on a
    grid resolving the friction relaxation time eps^2/alpha, and the
    metric is E sup_t |H(t)| over [0, T] (with k set: the k-th root of
    the k-th moment of |H(T)| instead).  The fit is least squares in
    log-log.

    The square-root rate of the sup bound is tight only on horizons
    comparable to the relaxation time; on horizons long enough for the
    convolution to reach its quasi-stationary regime the supremum decays
    at the sharper pointwise rate eps^{3/2} (up to a slowly varying
    factor), which is also what the k-moment metric at fixed T shows.
    Pick T accordingly for the regime under test.
    """
    ladder = check_ladder(eps_ladder, 3)

    def value(tr, noise):
        H = stochastic_convolution(tr, p, noise).convolution
        Hn = np.linalg.norm(H, axis=-1)                    # (m, K+1)
        return np.max(Hn, axis=-1) if k is None else Hn[:, -1] ** k

    metrics = []
    for j, eps in enumerate(ladder):
        sp = SimParams(eps=eps, T=T, h=_sim_step(p, eps, T))
        vals = path_values(p, sp, p.O, np.zeros(p.d), M, seed, j * M, value)
        mean = math.fsum(vals) / M
        metrics.append(mean if k is None else mean ** (1.0 / k))
    return _fit_loglog(ladder, metrics)


def controlled_convergence(p: ProblemDefinition, u: ControlSignal,
                           eps_ladder, M: int, seed: int, q0=None, p0=None,
                           osc_amplitude=None) -> ScalingFit:
    """E sup_t |controlled trajectory - skeleton| along an eps ladder.

    The skeleton is integrated once at the control's resolution and
    interpolated onto each rung's grid.  osc_amplitude, when given, adds
    sin(t/eps) * osc_amplitude to the control per rung (a weakly but not
    strongly vanishing perturbation); the limit must not care.
    """
    ladder = check_ladder(eps_ladder, 1)
    q0 = p.point(p.O if q0 is None else q0, "q0")
    p0 = p.point(np.zeros(p.d) if p0 is None else p0, "p0")
    T = u.T

    skel = controlled_skeleton(p, u, q0)

    metrics = []
    for j, eps in enumerate(ladder):
        h = _sim_step(p, eps, T)
        sp = SimParams(eps=eps, T=T, h=h)
        times = np.arange(sp.steps + 1) * h
        u_grid = interp_columns(times, u.times, u.values)
        if osc_amplitude is not None:
            amp = np.broadcast_to(np.asarray(osc_amplitude, dtype=float),
                                  (u.r,))
            u_grid = u_grid + np.sin(times[:, None] / eps) * amp
        g_ref = interp_columns(times, skel.times, skel.points)
        vals = path_values(
            p, sp, q0, p0, M, seed, j * M,
            lambda tr, noise: np.max(
                np.linalg.norm(tr.q - g_ref, axis=-1), axis=-1),
            control=u_grid[:-1])
        metrics.append(math.fsum(vals) / M)
    if ladder.size < 3:
        m = np.asarray(metrics)
        return ScalingFit(eps_values=ladder, metric_values=m,
                          fitted_exponent=math.nan, r_squared=math.nan)
    return _fit_loglog(ladder, metrics)


CostLike = Union[str, ScalarExpr]


def minimize_terminal_plus_action(p: ProblemDefinition, q_start, T: float,
                                  terminal_cost: CostLike, N: int = 64,
                                  seed: int = 0):
    """min over paths from q_start (free right endpoint) of
    terminal_cost(f(T)) + action(f); returns (value, endpoint, path)."""
    cost = q_field(terminal_cost, p.d, "terminal cost")
    q_start = p.point(q_start, "q_start")
    d = p.d
    if T <= 0 or N < 8:
        raise ConfigError("need T > 0 and N >= 8")

    def body(pts, costs, g_left, g_right):
        lam = float(evaluate(cost, pts[-1][None, :])[0])
        grad = node_gradient(g_left, g_right, pin_end=False)
        grad[-1] += grad_field(cost, pts[-1][None, :], d)[0]
        return float(np.sum(costs)) + lam, grad

    rng = np.random.default_rng(seed)
    pts0 = np.tile(q_start, (N + 1, 1))
    pts0[1:] += 1e-3 * rng.standard_normal((N, d))
    pts, res = minimize_path(p, T, pts0, body, "standard", pin_end=False)
    return float(res.fun), pts[-1].copy(), DiscretePath(T=T, points=pts)


@dataclass
class LaplaceReport:
    eps_values: np.ndarray
    lhs_values: np.ndarray      # -eps log E exp(-cost/eps) per rung
    flagged: np.ndarray         # rungs whose Monte Carlo CI is too wide
    extrapolated: float         # linear-in-eps extrapolation to eps = 0
    variational_value: float
    minimizer_endpoint: np.ndarray
    rel_gap: float


def laplace_check(p: ProblemDefinition, terminal_cost: CostLike, eps_ladder,
                  M: int, T: float, seed: int, q0=None, N: int = 64,
                  ci_threshold: float = 0.2) -> LaplaceReport:
    """Monte Carlo Laplace functional against the variational value.

    The left side is assembled in log space per rung and extrapolated
    linearly in eps; the right side is one deterministic path
    optimization with a free endpoint.  Rungs whose relative CI of
    E exp(-cost/eps) exceeds ci_threshold, or that hold one sample, are
    flagged (and still used).
    """
    cost = q_field(terminal_cost, p.d, "terminal cost")
    q0 = p.point(p.O if q0 is None else q0, "q0")
    ladder = check_ladder(eps_ladder, 2)

    lhs = np.empty(ladder.size)
    flagged = np.zeros(ladder.size, dtype=bool)
    for j, eps in enumerate(ladder):
        sp = SimParams(eps=eps, T=T, h=_sim_step(p, eps, T))
        logw = path_values(
            p, sp, q0, np.zeros(p.d), M, seed, j * M,
            lambda tr, noise: -evaluate(cost, tr.q[:, -1, :]) / eps)
        lhs[j] = -eps * (logsumexp(logw) - math.log(M))
        # relative CI of the weight mean via normalized weights; one
        # sample gives no CI, so its rung is flagged
        w = np.exp(logw - logw.max())
        se = float(np.std(w, ddof=1)) / math.sqrt(M) if M > 1 else math.inf
        flagged[j] = se > ci_threshold * float(np.mean(w))

    extrap = float(np.polyfit(ladder, lhs, 1)[1])
    var_val, endpoint, _ = minimize_terminal_plus_action(
        p, q0, T, cost, N=N, seed=seed)
    gap = abs(extrap - var_val) / max(abs(var_val), 1e-30)
    return LaplaceReport(eps_values=ladder, lhs_values=lhs, flagged=flagged,
                         extrapolated=extrap, variational_value=var_val,
                         minimizer_endpoint=endpoint, rel_gap=gap)
