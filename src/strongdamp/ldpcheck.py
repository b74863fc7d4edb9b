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

All three draw their paths through sde.NoisePath.batches.  log_mean_weight
is the one Monte Carlo estimator of a log mean of path weights: the
Laplace functional uses it per rung, and front.feynman_kac_bound uses it
for the Feynman-Kac functional.
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
from .expr import ScalarExpr, evaluate, grad_field, parse_expression
from .fields import ProblemDefinition
from .sde import NoisePath, SimParams, default_step, simulate_inertial, \
    snap_step, stochastic_convolution

# Rows per batch of the checks that sum per-batch partial sums: another
# split would round those sums differently.
BATCH = 250

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


def _fit_loglog(eps_values, metrics) -> ScalingFit:
    eps_values = np.asarray(eps_values, dtype=float)
    metrics = np.asarray(metrics, dtype=float)
    if eps_values.size < 3:
        raise ConfigError("scaling fit needs at least 3 rungs")
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


def log_mean_weight(p: ProblemDefinition, sp: SimParams, q0, M: int,
                    seed: int, first_id: int, log_weight):
    """log of the mean of exp(log_weight) over M inertial paths started at
    rest from q0, on stream ids first_id, ..., first_id + M - 1.

    log_weight maps a batch Trajectory to its rows' log weights.  All M
    log weights go into one array that one logsumexp reduces, so the
    batch split cannot change the result.  Returns (log mean, the (M,)
    log weights).
    """
    logw = np.empty(M)
    for start, noise in NoisePath.batches(seed, M, sp.steps, p.r, sp.h,
                                          first_id):
        w = log_weight(simulate_inertial(p, sp, q0, np.zeros(p.d), noise))
        logw[start:start + w.size] = w
    return float(logsumexp(logw) - math.log(M)), logw


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
    ladder = np.asarray(eps_ladder, dtype=float)
    if ladder.size < 3:
        raise ConfigError("need at least 3 eps rungs")

    metrics = []
    for j, eps in enumerate(ladder):
        sp = SimParams(eps=eps, T=T, h=_sim_step(p, eps, T))
        acc = 0.0
        for _, noise in NoisePath.batches(seed, M, sp.steps, p.r, sp.h,
                                          first_id=j * M, rows=BATCH):
            tr = simulate_inertial(p, sp, p.O, np.zeros(p.d), noise)
            trH = stochastic_convolution(tr, p, noise)
            Hn = np.linalg.norm(trH.convolution, axis=-1)   # (m, K+1)
            if k is None:
                acc += float(np.sum(np.max(Hn, axis=-1)))
            else:
                acc += float(np.sum(Hn[:, -1] ** k))
        mean = acc / M
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
    ladder = np.asarray(eps_ladder, dtype=float)
    if ladder.size < 1:
        raise ConfigError("need at least one eps rung")
    q0 = p.O.copy() if q0 is None else np.asarray(q0, dtype=float)
    p0 = np.zeros(p.d) if p0 is None else np.asarray(p0, dtype=float)
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
        acc = 0.0
        for _, noise in NoisePath.batches(seed, M, sp.steps, p.r, sp.h,
                                          first_id=j * M, rows=BATCH):
            tr = simulate_inertial(p, sp, q0, p0, noise,
                                   control=u_grid[:-1])
            dev = np.linalg.norm(tr.q - g_ref, axis=-1)
            acc += float(np.sum(np.max(dev, axis=-1)))
        metrics.append(acc / M)
    if ladder.size < 3:
        m = np.asarray(metrics)
        return ScalingFit(eps_values=ladder, metric_values=m,
                          fitted_exponent=math.nan, r_squared=math.nan)
    return _fit_loglog(ladder, metrics)


CostLike = Union[str, ScalarExpr]


def _as_expr(terminal_cost: CostLike, d: int) -> ScalarExpr:
    """The terminal cost as an expression of q1..qd only."""
    cost = (terminal_cost if isinstance(terminal_cost, ScalarExpr)
            else parse_expression(str(terminal_cost)))
    if cost.uses_u:
        raise ConfigError("terminal cost must depend on q only")
    if cost.max_q_index > d:
        raise ConfigError(
            f"terminal cost references q{cost.max_q_index} but d = {d}")
    return cost


def minimize_terminal_plus_action(p: ProblemDefinition, q_start, T: float,
                                  terminal_cost: CostLike, N: int = 64,
                                  seed: int = 0):
    """min over paths from q_start (free right endpoint) of
    terminal_cost(f(T)) + action(f); returns (value, endpoint, path)."""
    cost = _as_expr(terminal_cost, p.d)
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
    E exp(-cost/eps) exceeds ci_threshold are flagged (and still used).
    Each rung is one log_mean_weight call.
    """
    cost = _as_expr(terminal_cost, p.d)
    q0 = p.point(p.O if q0 is None else q0, "q0")
    ladder = np.asarray(eps_ladder, dtype=float)
    if ladder.size < 2:
        raise ConfigError("need at least 2 eps rungs to extrapolate")

    lhs = np.empty(ladder.size)
    flagged = np.zeros(ladder.size, dtype=bool)
    for j, eps in enumerate(ladder):
        sp = SimParams(eps=eps, T=T, h=_sim_step(p, eps, T))
        log_mean, logw = log_mean_weight(
            p, sp, q0, M, seed, j * M,
            lambda tr: -evaluate(cost, tr.q[:, -1, :]) / eps)
        lhs[j] = -eps * log_mean
        # relative CI of the weight mean via normalized weights
        w = np.exp(logw - logw.max())
        mu = float(np.mean(w))
        se = float(np.std(w, ddof=1)) / math.sqrt(M)
        if se > ci_threshold * mu:
            flagged[j] = True

    if ladder.size == 2:
        slope = (lhs[1] - lhs[0]) / (ladder[1] - ladder[0])
        extrap = float(lhs[0] - slope * ladder[0])
    else:
        coeffs = np.polyfit(ladder, lhs, 1)
        extrap = float(coeffs[1])
    var_val, endpoint, _ = minimize_terminal_plus_action(
        p, q0, T, cost, N=N, seed=seed)
    gap = abs(extrap - var_val) / max(abs(var_val), 1e-30)
    return LaplaceReport(eps_values=ladder, lhs_values=lhs, flagged=flagged,
                         extrapolated=extrap, variational_value=var_val,
                         minimizer_endpoint=endpoint, rel_gap=gap)
