"""Monte Carlo exit experiments for the damped second-order process.

exit_scaling runs M paths per rung of an eps ladder and reports each
rung's statistics and their eps -> 0 limit; exit_location_histogram bins
where the paths of one rung left.  The paths run in a streaming kernel
(nothing is stored but the current state), exit is detected as the first
sign change of the domain function phi along a step, and the crossing
time and point are placed by linear interpolation inside that step.
Exit times live on the rescaled clock; divide by eps for the original
one.

The headline check: eps * log E[tau] approaches the boundary minimum of
the quasipotential as eps decreases.  Means use compensated summation and
rungs containing timeouts are flagged as lower bounds, never silently
averaged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .expr import compiled_all, run_trapped
from .fields import ProblemDefinition
from .sde import check_ladder, default_step, make_step, philox_keys, \
    philox_start

DEFAULT_CHUNK = 4096
FIRST_DRAW = 256           # steps in a row's first noise draw


def default_max_steps(eps: float) -> int:
    """Step cap covering an eps-independent horizon under default_step."""
    return int(math.ceil(1e8 / eps**2))


@dataclass
class ExitStats:
    eps: float
    n_samples: int
    mean_tau: float
    ci_halfwidth: float
    eps_log_mean: float
    exit_points: np.ndarray    # (n_exits, d)
    taus: np.ndarray           # (n_exits,) rescaled clock
    timeouts: int
    lower_bound: bool          # True when timeouts were dropped from the mean


@dataclass
class ExitScaling:
    stats: list
    limit: float               # eps*log E[tau] extrapolated to eps = 0
    slope: float
    used_eps: np.ndarray       # rungs that entered the fit (timeout-free)


def _exit_kernel(p: ProblemDefinition, eps: float, h: float, scheme: str,
                 q0: np.ndarray, v0: np.ndarray, seed: int,
                 stream_ids: Sequence[int], max_steps: int,
                 chunk_steps: int = DEFAULT_CHUNK):
    """Advance M paths until each exits G or hits the step cap.

    Returns (tau (M,), exit_points (M, d), timed_out (M,)); a row that
    times out keeps tau = nan.  The state keeps only the rows inside G: a
    step where a row exits drops it, and `live` maps the state rows to
    their rows of the chunk's noise.  Each row draws from its own Philox
    stream as it goes (FIRST_DRAW steps, then as many as have run, at most
    chunk_steps), which gives the numbers of one long draw; each row's
    bit-generator state is kept between chunks.  A chunk runs under one
    trap, and a trapped step runs again on step.checked and on phi's
    checked twin.  phi is checked finite on the rows that cross and on all
    rows at the chunk's end: a NaN never crosses, as NaN >= 0 is false.
    """
    M, d = q0.shape
    tau = np.full(M, np.nan)
    exit_pts = np.full((M, d), np.nan)

    phi_init = p.eval_phi(q0)
    immediate = phi_init >= 0
    tau[immediate] = 0.0
    exit_pts[immediate] = q0[immediate]

    active = np.flatnonzero(~immediate)
    q, v, phi = q0[active], v0[active], phi_init[active]

    states = [philox_start(key)
              for key in philox_keys(seed, stream_ids).tolist()]
    gen = np.random.Generator(np.random.Philox(0))

    step = make_step(p, eps, h, scheme)
    G = compiled_all([p.G])

    def advance(k, checked):
        """Step k of the chunk; the rows that cross leave the state.
        True once no row is left."""
        nonlocal q, v, phi, live
        st, phi_of = (step.checked, G.checked) if checked else (step, G)
        q1, v1 = st(q, v, inc[:, k] if live is None else inc[live, k])
        phi1 = phi_of(q1).reshape(phi.shape)
        if phi1.max() >= 0:
            crossed = phi1 >= 0
            gap = phi[crossed] - phi1[crossed]
            if not np.isfinite(gap).all():
                raise NumericalError("exit path diverged (non-finite state)")
            if live is None:
                live = np.arange(active.size)
            frac = phi[crossed] / gap
            ids = active[live[crossed]]
            tau[ids] = (step_count + k + frac) * h
            exit_pts[ids] = q[crossed] + frac[:, None] * (
                q1[crossed] - q[crossed])
            stay = ~crossed
            live, q1, v1, phi1 = live[stay], q1[stay], v1[stay], phi1[stay]
        q, v, phi = q1, v1, phi1
        return phi.size == 0

    step_count = 0
    while active.size and step_count < max_steps:
        n_chunk = min(chunk_steps, max(FIRST_DRAW, step_count),
                      max_steps - step_count)
        inc = np.empty((active.size, n_chunk, p.r))
        for row, i in enumerate(active.tolist()):
            gen.bit_generator.state = states[i]
            gen.standard_normal(out=inc[row])
            states[i] = gen.bit_generator.state
        inc *= math.sqrt(h)

        live = None                # chunk rows of the state, once compacted
        run_trapped(n_chunk, advance)
        if not np.isfinite(phi).all():
            raise NumericalError("exit path diverged (non-finite state)")

        step_count += n_chunk
        if live is not None:
            active = active[live]

    return tau, exit_pts, np.isnan(tau)


def _rung_stats(eps: float, taus: np.ndarray, pts: np.ndarray,
                timed_out: np.ndarray) -> ExitStats:
    ok = ~timed_out
    t_ok = taus[ok]
    n = int(t_ok.size)
    timeouts = int(np.sum(timed_out))
    if n == 0:
        mean = ci = eps_log_mean = math.nan
    else:
        mean = math.fsum(t_ok) / n
        eps_log_mean = eps * math.log(mean)
        if n == 1:
            ci = math.inf
        else:
            var = math.fsum((t - mean) ** 2 for t in t_ok) / (n - 1)
            ci = 1.96 * math.sqrt(var / n)
    return ExitStats(eps=eps, n_samples=n, mean_tau=mean, ci_halfwidth=ci,
                     eps_log_mean=eps_log_mean,
                     exit_points=pts[ok], taus=t_ok, timeouts=timeouts,
                     lower_bound=timeouts > 0)


def exit_scaling(p: ProblemDefinition, eps_ladder, M: int, seed: int, *,
                 q0=None, p0=None, h: float = None,
                 scheme: str = "exponential", max_steps: int = None,
                 V0_hint: float = None) -> ExitScaling:
    """eps*log E[tau] along a decreasing eps ladder plus its eps -> 0 limit.

    The limit is a linear-in-eps extrapolation through the timeout-free
    rungs.  V0_hint, when given, triggers an upfront warning for rungs
    whose predicted mean exit time e^{V0/eps} cannot fit under the step
    cap.  Stream ids are pre-assigned per (rung, path), so results do not
    depend on scheduling.
    """
    p.require("G")
    ladder = check_ladder(eps_ladder, 1)
    if M < 1:
        raise ConfigError("need at least one sample per rung")
    q0 = p.point(p.O if q0 is None else q0, "q0")
    p0 = p.point(np.zeros(p.d) if p0 is None else p0, "p0")

    stats = []
    for j, eps in enumerate(ladder):
        h_eps = default_step(p, eps) if h is None else h
        cap = default_max_steps(eps) if max_steps is None else max_steps
        if V0_hint is not None:
            predicted = math.exp(V0_hint / eps)
            if predicted > 0.5 * cap * h_eps:
                warnings.warn(
                    f"rung eps={eps:g}: predicted mean exit time "
                    f"{predicted:.3g} approaches the step-cap horizon "
                    f"{cap * h_eps:.3g}; expect timeouts", stacklevel=2)
        stream_ids = [j * M + i for i in range(M)]
        taus, pts, out = _exit_kernel(
            p, eps, h_eps, scheme, np.broadcast_to(q0, (M, p.d)),
            np.broadcast_to(p0 / eps, (M, p.d)), seed, stream_ids, cap)
        stats.append(_rung_stats(eps, taus, pts, out))

    clean = [(s.eps, s.eps_log_mean) for s in stats
             if s.timeouts == 0 and s.n_samples > 0]
    if not clean:
        raise NumericalError(
            "every rung contained timeouts; no scaling fit possible")
    if len(clean) == 1:
        limit, slope = clean[0][1], math.nan
    else:
        xs = np.array([c[0] for c in clean])
        ys = np.array([c[1] for c in clean])
        slope, limit = (float(v) for v in np.polyfit(xs, ys, 1))
    return ExitScaling(stats=stats, limit=limit, slope=slope,
                       used_eps=np.array([c[0] for c in clean]))


@dataclass
class ExitHistogram:
    edges: np.ndarray
    counts: np.ndarray
    kind: str                  # "coordinate" (d=1) or "angle" (d=2)
    mode: float                # center of the most populated bin
    mode_point: np.ndarray     # mean exit point within that bin


def exit_location_histogram(stats: ExitStats, bins: int = 16,
                            center=None) -> ExitHistogram:
    """Histogram of exit locations over a boundary parameterization.

    d=1 bins the exit coordinate directly; d=2 bins the angle around
    `center` (default the sample mean is NOT used; pass the rest point O).
    Requires at least 50 exited samples.
    """
    pts = stats.exit_points
    if pts.shape[0] < 50:
        raise ConfigError(
            f"need at least 50 exit samples, got {pts.shape[0]}")
    d = pts.shape[1]
    if d == 1:
        values = pts[:, 0]
        counts, edges = np.histogram(values, bins=bins)
        kind = "coordinate"
    elif d == 2:
        c = np.zeros(2) if center is None else np.asarray(center, dtype=float)
        rel = pts - c
        values = np.arctan2(rel[:, 1], rel[:, 0])
        counts, edges = np.histogram(values, bins=bins,
                                     range=(-math.pi, math.pi))
        kind = "angle"
    else:
        raise ConfigError("histogram supports d = 1 or 2 only")
    k = int(np.argmax(counts))
    mode = 0.5 * (edges[k] + edges[k + 1])
    in_bin = (values >= edges[k]) & (values <= edges[k + 1])
    mode_point = pts[in_bin].mean(axis=0)
    return ExitHistogram(edges=edges, counts=counts, kind=kind,
                         mode=float(mode), mode_point=mode_point)
