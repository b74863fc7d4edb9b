"""Monte Carlo exit experiments for the damped second-order process.

exit_scaling runs M paths per rung of an eps ladder and reports each
rung's statistics and their eps -> 0 limit; exit_location_histogram bins
where the paths of one rung left.  The paths of all rungs run together in
one call of a streaming kernel (nothing is stored but the current state),
each on its rung's step and step cap, so a ladder takes as many steps as
its longest path, not the sum over rungs.  Exit is detected as the first
sign change of the domain function phi along a step, and the crossing
time and point are placed by linear interpolation inside that step.
Exit times live on the rescaled clock; divide by eps for the original
one.  A field that leaves its domain during a step raises EvalDomainError
naming the sub-expression.

The headline check: eps * log E[tau] approaches the boundary minimum of
the quasipotential as eps decreases.  Each rung is read by
ldpcheck.rung_mean (a compensated mean and its 1.96 half-width) and the
limit by ldpcheck.fit_line; rungs containing timeouts are flagged as lower
bounds and left out of the fit, never silently averaged.
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
from .ldpcheck import fit_line, rung_mean
from .sde import check_ladder, default_step, draw_rows, make_step, \
    stream_generators

DEFAULT_CHUNK = 4096
FIRST_DRAW = 256           # steps in a row's first noise draw
CHUNK_VALUES = 2**17       # noise values a chunk holds at most (1 MB)


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


def _exit_kernel(p: ProblemDefinition, eps, h, scheme: str,
                 q0: np.ndarray, v0: np.ndarray, seed: int,
                 stream_ids: Sequence[int], max_steps,
                 chunk_steps: int = DEFAULT_CHUNK):
    """Advance M paths until each exits G or hits its step cap.

    eps, h and max_steps are scalars or per-row (M,) arrays, so the rows of a
    whole eps ladder can advance together, each on its rung's step and cap.
    Returns (tau (M,), exit_points (M, d), timed_out (M,)); a row that times
    out keeps tau = nan.  The state keeps the rows inside G and under their
    cap; `rows` maps it to the M rows, `live` to the rows of the chunk's
    noise, and a step where rows exit takes the rows that stay once from each.
    Each row keeps its own Philox generator and draws as it goes (FIRST_DRAW
    steps, then as many as have run, at most chunk_steps and CHUNK_VALUES in
    all, never past a cap), one long draw's numbers, which draw_rows stores
    time-major: a step reads one (rows, r) block.  A chunk runs under one
    trap (run_trapped), and a field of the step or phi that traps names its
    sub-expression.  phi is checked finite on the rows that cross and on
    all rows at the chunk's end: a NaN never crosses, as NaN >= 0 is false.
    """
    M, d = q0.shape
    eps, h, cap = (np.broadcast_to(a, M) for a in (eps, h, max_steps))
    tau = np.full(M, np.nan)
    exit_pts = np.full((M, d), np.nan)

    phi_init = p.eval_phi(q0)
    immediate = phi_init >= 0
    tau[immediate] = 0.0
    exit_pts[immediate] = q0[immediate]

    gens = stream_generators(seed, stream_ids)
    root_h = np.sqrt(h)[:, None]

    step = make_step(p, eps, h, scheme)
    G = compiled_all([p.G])

    def keep(idx):
        """The state keeps its rows idx."""
        nonlocal q, v, phi, rows, live, consts, c
        q, v, phi, rows, live = (a.take(idx, axis=0)
                                 for a in (q, v, phi, rows, live))
        consts = consts.take(idx, axis=1)
        c = tuple(consts)

    def advance(k):
        """Step k of the chunk; the rows that cross leave the state.
        True once no row is left."""
        nonlocal q, v, phi
        q1, v1 = step(q, v, inc[k].take(live, axis=0), c=c)
        phi1 = G(q1).reshape(phi.shape)
        crossed = phi1.max() >= 0
        if crossed:
            out = np.flatnonzero(phi1 >= 0)
            gap = phi[out] - phi1[out]
            if not np.isfinite(gap).all():
                raise NumericalError("exit path diverged (non-finite state)")
            frac = phi[out] / gap
            ids = rows[out]
            tau[ids] = (step_count + k + frac) * h[ids]
            exit_pts[ids] = q[out] + frac[:, None] * (q1[out] - q[out])
        q, v, phi = q1, v1, phi1
        if crossed:
            keep(np.flatnonzero(phi1 < 0))
        return phi.size == 0

    rows = live = np.arange(M)
    q, v, phi, consts, c = q0, v0, phi_init, step.constants, None
    keep(np.flatnonzero(~immediate))
    step_count = 0
    while rows.size:
        n_chunk = min(chunk_steps, max(FIRST_DRAW, step_count),
                      int(cap[rows].min()) - step_count,
                      max(CHUNK_VALUES // (rows.size * p.r), 1))
        inc = draw_rows(map(gens.__getitem__, rows.tolist()), n_chunk,
                        p.r, root_h[rows])
        live = np.arange(rows.size)
        run_trapped(n_chunk, advance)
        if not np.isfinite(phi).all():
            raise NumericalError("exit path diverged (non-finite state)")
        step_count += n_chunk
        keep(np.flatnonzero(cap[rows] > step_count))

    return tau, exit_pts, np.isnan(tau)


def _rung_stats(eps: float, taus: np.ndarray, pts: np.ndarray,
                timed_out: np.ndarray) -> ExitStats:
    ok = ~timed_out
    t_ok = taus[ok]
    n = int(t_ok.size)
    timeouts = int(np.sum(timed_out))
    mean, ci = rung_mean(t_ok)
    return ExitStats(eps=eps, n_samples=n, mean_tau=mean, ci_halfwidth=ci,
                     eps_log_mean=eps * math.log(mean),    # nan if n = 0
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
    # a start on or outside G exits at tau = 0, which has no log
    phi0 = float(p.eval_phi(q0[None])[0])
    if not phi0 < 0:
        raise ConfigError(f"q0 = {q0.tolist()} is not inside G: "
                          f"phi(q0) = {phi0:g}, and an exit time needs "
                          "phi(q0) < 0")

    hs = np.array([default_step(p, eps) if h is None else h
                   for eps in ladder])
    caps = np.array([default_max_steps(eps) if max_steps is None
                     else max_steps for eps in ladder])
    for eps, h_eps, cap in zip(ladder, hs, caps):
        # compared in log space: e^{V0/eps} overflows a float for small eps
        if (V0_hint is not None
                and V0_hint / eps > math.log(0.5 * cap * h_eps)):
            warnings.warn(
                f"rung eps={eps:g}: predicted mean exit time "
                f"e^{V0_hint / eps:.4g} approaches the step-cap horizon "
                f"{cap * h_eps:.3g}; expect timeouts", stacklevel=2)
    rung = np.repeat(np.arange(ladder.size), M)    # row j*M + i: rung j
    taus, pts, out = _exit_kernel(
        p, ladder[rung], hs[rung], scheme,
        np.broadcast_to(q0, (rung.size, p.d)), p0 / ladder[rung, None],
        seed, range(rung.size), caps[rung])
    stats = [_rung_stats(eps, taus[rung == j], pts[rung == j],
                         out[rung == j]) for j, eps in enumerate(ladder)]

    clean = [s for s in stats if s.timeouts == 0 and s.n_samples > 0]
    if not clean:
        raise NumericalError(
            "every rung contained timeouts; no scaling fit possible")
    used = np.array([s.eps for s in clean])
    slope, limit, _ = fit_line(used, [s.eps_log_mean for s in clean])
    return ExitScaling(stats=stats, limit=limit, slope=slope, used_eps=used)


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
    `center`, which defaults to the origin (the sample mean is never used;
    pass the rest point O when it lies elsewhere).
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
