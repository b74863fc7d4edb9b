"""Trajectory simulation for the damped second-order system and its limit.

The rescaled dynamics integrated here is

    eps^2 q'' = b(q) - alpha(q) q' + sigma(q) u + eps^(1/2-beta) sigma(q) w'

with initial velocity q'(0) = p0/eps, together with the first-order limit

    g' = b(g)/alpha(g) + sigma(g) u / alpha(g) + eps^(1/2-beta) sigma(g)/alpha(g) w'.

make_step builds the one step of the stiff system.  Its default
exponential scheme freezes coefficients over a step and advances the
velocity as an Ornstein-Uhlenbeck bridge, stable for steps far larger than
eps^2; the position takes the exact integral of the frozen relaxation (its
noise part keeps the trapezoidal weight h/2).  The explicit Euler-Maruyama
scheme is a cross check and only accepts h <= default_step.  make_step
also builds the Euler-Maruyama step of the limit equation.  Two loops
drive the step: the stored-path loop behind simulate_inertial and
simulate_first_order, on one float eps and h, and the streaming exit
kernel, which advances the rows of a whole eps ladder together.  There
eps and h are per-row arrays, and the constants the step freezes from
them are per-row columns that the kernel compacts with the state; each
row gets the bits a float eps and h would give it.  The step runs the
generated field evaluators unchecked; each loop owns one floating-point
trap scope (expr.run_trapped) and re-runs a trapped step on their checked
twins, so EvalDomainError still names the sub-expression.  sigma_applier
is the one rule for applying sigma, shared with stochastic_convolution:
a constant identity sigma is not applied at all.

default_step is the package's one step-size rule, alpha_max h / eps^2 =
0.2, and snap_step shortens a step so that it divides the horizon.

Noise is reproducible: every path owns a counter-based Philox stream keyed
by mixing (seed, stream_id) through a fixed 64-bit finalizer, so results
do not depend on scheduling or batch composition.  philox_keys derives
the keys of a whole batch in uint64 array arithmetic.  draw_rows draws
rows of noise from positioned generators: a batch draw re-keys one to each
fresh row's start (rekeyed), the exit kernel keeps one per row
(stream_generators).  Both give make_generator's numbers.
NoisePath.batches is the one place that splits M paths into batches of
consecutive stream ids; ldpcheck.path_values, the one Monte Carlo path
loop, and the simulate command draw through it.

Batched paths are stored time-major, (K+1, M, d), so each step reads and
writes contiguous (M, d) blocks; batch draws store their increments the
same way.  The arrays handed out keep the (M, K+1, d) and (M, K, r) shapes
as views of that storage.  A (d,) start drives every row of a batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .artifacts import float_lines, write_csv
from .errors import ConfigError, NumericalError
from .expr import compiled_all, run_trapped
from .fields import ProblemDefinition


class StabilityError(NumericalError):
    pass


class GridMismatchError(ConfigError):
    pass


_MASK64 = (1 << 64) - 1
DRAW_ROWS = 256    # rows draw_rows draws before it scales them into place


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array; avalanche-mixes each word.
    uint64 array arithmetic wraps mod 2^64, as the finalizer needs."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def philox_keys(seed: int, stream_ids: Iterable[int]) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the streams (seed, stream_ids[i]):
    (mix(seed), mix(mix(seed) ^ mix(stream_id))), with SplitMix64's
    finalizer as mix and seed and ids taken mod 2^64."""
    ids = np.fromiter((int(sid) & _MASK64 for sid in stream_ids), np.uint64)
    k0 = _splitmix64(np.array([int(seed) & _MASK64], dtype=np.uint64))
    keys = np.empty((ids.size, 2), dtype=np.uint64)
    keys[:, 0] = k0
    keys[:, 1] = _splitmix64(k0 ^ _splitmix64(ids))
    return keys


def stream_generators(seed: int, stream_ids: Iterable[int]) -> list:
    """A Philox generator at the start of each stream (seed, stream_id)."""
    return [np.random.Generator(np.random.Philox(key=key))
            for key in philox_keys(seed, stream_ids)]


def rekeyed(seed: int, stream_ids: Iterable[int]) -> Iterator:
    """One Philox generator, re-keyed in turn to the start of each stream
    (seed, stream_id): a zero counter and an empty buffer."""
    gen = np.random.Generator(np.random.Philox(0))
    state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0,
             "state": {"counter": (0,) * 4, "key": None}}
    for key in philox_keys(seed, stream_ids).tolist():
        state["state"]["key"] = key
        gen.bit_generator.state = state
        yield gen


def make_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, stream_id)."""
    return stream_generators(seed, [stream_id])[0]


def draw_rows(gens: Iterator, steps: int, r: int,
              root: np.ndarray) -> np.ndarray:
    """Time-major (steps, n, r) normals: row i is the next of gens drawn as
    standard_normal((steps, r)), times root[i] of an (n, 1) column.  Rows
    are drawn DRAW_ROWS at a time, each block scaled into place at once."""
    n = len(root)
    inc = np.empty((steps, n, r))
    draw = np.empty((min(DRAW_ROWS, n), steps, r))
    for start in range(0, n, DRAW_ROWS):
        block = draw[:min(DRAW_ROWS, n - start)]
        for row, gen in zip(block, gens):
            gen.standard_normal(out=row)
        np.multiply(block.transpose(1, 0, 2), root[start:start + len(block)],
                    out=inc[:, start:start + len(block)])
    return inc


@dataclass
class NoisePath:
    """Brownian increments on a uniform grid; increment variance equals dt."""

    dt: float
    increments: np.ndarray  # (steps, r) or (M, steps, r); batches time-major

    @property
    def steps(self) -> int:
        return self.increments.shape[-2]

    @property
    def r(self) -> int:
        return self.increments.shape[-1]

    @classmethod
    def generate_batch(cls, seed: int, stream_ids: Sequence[int], steps: int,
                       r: int, dt: float) -> "NoisePath":
        """Stack of independent paths; stream ids are pre-assigned so the
        result is identical however the batch is later split.

        Row i holds make_generator(seed, stream_ids[i]).standard_normal(
        (steps, r)) * sqrt(dt), drawn by draw_rows from one generator
        re-keyed per row, so no buffered word of one row reaches the next.
        """
        if steps < 1 or r < 1 or not 0 < dt < math.inf:
            raise ConfigError(
                "NoisePath needs steps >= 1, r >= 1, 0 < dt < inf")
        inc = draw_rows(rekeyed(seed, stream_ids), steps, r,
                        np.full((len(stream_ids), 1), np.sqrt(dt)))
        return cls(dt=dt, increments=inc.transpose(1, 0, 2))

    @classmethod
    def batches(cls, seed: int, M: int, steps: int, r: int, dt: float,
                first_id: int = 0, rows: Optional[int] = None
                ) -> Iterator[tuple[int, "NoisePath"]]:
        """M paths on stream ids first_id, ..., first_id + M - 1, drawn
        `rows` at a time (default batch_rows(steps)).  Yields (start,
        batch): the batch holds paths start, start + 1, ... of the M."""
        rows = batch_rows(steps) if rows is None else rows
        for start in range(0, M, rows):
            ids = range(first_id + start, first_id + min(start + rows, M))
            yield start, cls.generate_batch(seed, ids, steps, r, dt)

    def coarsen(self, factor: int) -> "NoisePath":
        """Sum consecutive groups of increments; same Brownian path on a
        grid coarser by `factor`."""
        if self.steps % factor != 0:
            raise GridMismatchError(
                f"cannot coarsen {self.steps} steps by {factor}")
        shape = self.increments.shape
        grouped = self.increments.reshape(
            shape[:-2] + (shape[-2] // factor, factor, shape[-1]))
        return NoisePath(dt=self.dt * factor, increments=grouped.sum(axis=-2))


def default_step(p: ProblemDefinition, eps: float) -> float:
    """Step with a fixed relaxation resolution alpha_max*h/eps^2 = 0.2."""
    return 0.2 * eps**2 / p.alpha_max


def snap_step(T: float, h: float, min_steps: int = 1) -> float:
    """T split into the fewest equal steps, at least min_steps, that are
    no longer than h (up to rounding)."""
    return T / max(math.ceil(T / h - 1e-9), min_steps)


# About 8 MB per stored array.  Each step of the path loop also pays a
# fixed ~20 us, what ~80 rows of p2 cost, so a smaller budget leaves long
# paths in batches dominated by that fixed cost.
ROW_STEPS_PER_BATCH = 2**20


def batch_rows(steps: int) -> int:
    """Rows per stored batch of `steps`-step paths: the row-step budget
    ROW_STEPS_PER_BATCH, at least one row."""
    return max(ROW_STEPS_PER_BATCH // (steps + 1), 1)


@dataclass
class SimParams:
    eps: float
    T: float
    h: float
    scheme: str = "exponential"

    def __post_init__(self):
        if not (0 < self.eps <= 1):
            raise ConfigError("eps must lie in (0, 1]")
        if not (0 < self.T < math.inf and 0 < self.h < math.inf):
            raise ConfigError("T and h must be positive and finite")
        if self.scheme not in ("exponential", "euler"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        n = round(self.T / self.h)
        if n < 1 or abs(n * self.h - self.T) > 1e-9 * max(1.0, self.T):
            raise ConfigError("T must be an integer multiple of h")

    @property
    def steps(self) -> int:
        return round(self.T / self.h)


def check_ladder(eps_ladder, min_rungs: int) -> np.ndarray:
    """eps_ladder as a float array; ConfigError unless it is 1-D, has at
    least min_rungs rungs and decreases strictly, each eps in (0, 1]."""
    ladder = np.asarray(eps_ladder, dtype=float)
    if ladder.ndim != 1 or ladder.size < min_rungs:
        raise ConfigError(
            f"eps ladder must be a list of at least {min_rungs} eps values")
    if np.any(np.diff(ladder) >= 0):
        raise ConfigError("eps ladder must be strictly decreasing")
    if not np.all((ladder > 0) & (ladder <= 1)):
        raise ConfigError("eps must lie in (0, 1]")
    return ladder


@dataclass
class Trajectory:
    """A realization on a uniform grid.  Arrays may carry a leading batch
    axis; `p` is empty (last axis 0) for first-order paths."""

    times: np.ndarray        # (K+1,)
    q: np.ndarray            # (..., K+1, d)
    p: np.ndarray            # (..., K+1, d) or (..., K+1, 0)
    eps: float
    convolution: Optional[np.ndarray] = None  # (..., K+1, d)

    @property
    def d(self) -> int:
        return self.q.shape[-1]

    @property
    def is_batch(self) -> bool:
        return self.q.ndim == 3

    def row(self, i: int) -> "Trajectory":
        """Path i of a batch, as views."""
        return replace(self, q=self.q[i], p=self.p[i],
                       convolution=None if self.convolution is None
                       else self.convolution[i])


ControlLike = Optional[np.ndarray]


def _control_values(control: ControlLike, steps: int,
                    r: int) -> Optional[np.ndarray]:
    """Control values at left endpoints of the steps, shape (steps, r)."""
    if control is None:
        return None
    vals = np.asarray(control, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] == steps + 1:
        vals = vals[:-1]
    if vals.shape != (steps, r):
        raise GridMismatchError(
            f"control must provide {steps} rows of {r} values, "
            f"got {vals.shape}")
    return vals


def _initial_position(p: ProblemDefinition, sp: SimParams, q0,
                      noise: NoisePath) -> np.ndarray:
    """q0 as a (d,) or (M, d) array, checked against the noise grid; a
    (d,) q0 starts every row of batched noise."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    if q0.shape[-1] != p.d:
        raise ConfigError(f"q0 must have d = {p.d} components")
    if abs(noise.dt - sp.h) > 1e-12 * max(1.0, sp.h):
        raise GridMismatchError(
            f"noise grid dt = {noise.dt} does not match h = {sp.h}")
    if noise.steps < sp.steps:
        raise GridMismatchError(
            f"noise provides {noise.steps} steps, need {sp.steps}")
    if noise.r != p.r:
        raise GridMismatchError(
            f"noise has r = {noise.r}, problem needs {p.r}")
    if q0.ndim == 2 and (noise.increments.ndim != 3
                         or noise.increments.shape[0] != q0.shape[0]):
        raise GridMismatchError("batched q0 needs one noise path per row")
    return q0


def _apply_sigma(sig: np.ndarray, vec: np.ndarray) -> np.ndarray:
    # sig: (..., d, r) or (d, r); vec: (..., r) -> (..., d)
    return np.einsum("...dr,...r->...d", sig, vec)


def sigma_applier(p: ProblemDefinition) -> Callable:
    """apply(sig, vec) -> sigma vec for p's sigma, the one rule make_step
    and stochastic_convolution share.  A constant identity sigma is not
    applied at all: the einsum's sum would only add exact zeros."""
    sig_c = p.sigma_const
    if sig_c is not None and np.array_equal(sig_c, np.eye(p.d)):
        return lambda sig, vec: vec
    return _apply_sigma


def make_step(p: ProblemDefinition, eps, h,
              scheme: str = "exponential") -> Callable:
    """One step of the damped second-order system, coefficients frozen at
    the left point, or with scheme "first_order" one Euler-Maruyama step
    of the first-order limit equation.

    Returns step(q, v, dW, u=None, c=step.constants) -> (q1, v1):
    positions and velocities (..., d), from Brownian increments dW
    (..., r) and an optional control value u (r,).  The first-order step
    hands v back unchanged.  The Euler scheme raises StabilityError for
    h > default_step.  A constant alpha or sigma is frozen once
    (p.alpha_const, p.sigma_const); step runs the generated evaluators of
    the other fields unchecked, under run_trapped, and step.checked is the
    same step on their checked twins (expr.compiled_all), which name a
    sub-expression that traps.

    step.constants holds what the step freezes from eps and h.  For float
    eps and h it is a tuple of floats.  eps and h may instead be per-row
    (n,) arrays, for rows that each run their own eps ladder rung: each
    distinct (eps, h) pair is frozen as a float pair would be, and
    step.constants stacks the values as (n, 1) columns, shape
    (n_constants, n, 1).  A caller that drops rows passes c = tuple of
    those columns taken on the rows it keeps.
    """
    if scheme not in ("exponential", "euler", "first_order"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    sig_c, al_c = p.sigma_const, p.alpha_const
    apply_sigma = sigma_applier(p)

    def relax(al, h, eps2, noise_pow):
        # decay, 1 - decay, mu1, h - mu1, noise amplitude
        decay = np.exp(-al * h / eps2)
        keep = 1.0 - decay
        mu1 = (eps2 / al) * keep
        amp = noise_pow * np.sqrt((1.0 - decay**2) / (2.0 * al * eps2))
        return decay, keep, mu1, h - mu1, amp

    @functools.cache
    def frozen_constants(eps, h):
        if scheme == "euler":
            h_max = default_step(p, eps)
            if h > h_max * (1 + 1e-9):
                raise StabilityError(
                    f"euler scheme needs h <= 0.2*eps^2/alpha_max = "
                    f"{h_max:.3e}, got h = {h:.3e}")
        eps2 = eps * eps
        noise_pow = eps ** (0.5 - p.beta)
        return (h, eps2, noise_pow, math.sqrt(h), h / eps2, 0.5 * h) + (
            () if al_c is None else relax(al_c, h, eps2, noise_pow))

    if np.ndim(eps) == np.ndim(h) == 0:
        consts = frozen_constants(eps, h)
    else:
        consts = np.array([frozen_constants(*pair) for pair in
                           zip(*np.broadcast_arrays(eps, h))]).T[..., None]

    def bind(b_of, alpha_of, flat_sigma):
        def frozen(q, u):
            sig = sig_c if sig_c is not None else flat_sigma(q).reshape(
                q.shape[:-1] + (p.d, p.r))
            al = al_c if al_c is not None else alpha_of(q)
            drift = b_of(q)
            if u is not None:
                drift = drift + apply_sigma(sig, u)
            return sig, al, drift

        def euler(q, v, dW, u=None, c=consts):
            h, eps2, noise_pow, _, h_eps2, *_ = c
            sig, al, drift = frozen(q, u)
            v1 = (v + h_eps2 * (drift - al * v)
                  + noise_pow * apply_sigma(sig, dW) / eps2)
            return q + h * v, v1

        def exponential(q, v, dW, u=None, c=consts):
            h, eps2, noise_pow, sqrt_h, _, half_h, *relax_c = c
            sig, al, drift = frozen(q, u)
            decay, keep, mu1, h_mu1, amp = (
                relax_c or relax(al, h, eps2, noise_pow))
            drift = drift / al
            xi = amp * apply_sigma(sig, dW) / sqrt_h
            v1 = decay * v + keep * drift + xi
            q1 = q + v * mu1 + drift * h_mu1 + half_h * xi
            return q1, v1

        def first_order(q, v, dW, u=None, c=consts):
            h, _, noise_pow, *_ = c
            sig, al, drift = frozen(q, u)
            q1 = q + h * drift / al + noise_pow * apply_sigma(sig, dW) / al
            return q1, v

        return {"euler": euler, "exponential": exponential,
                "first_order": first_order}[scheme]

    # the constant fields are frozen above; only the others get evaluators
    runs = (compiled_all(p.b),
            compiled_all([p.alpha]) if al_c is None else None,
            compiled_all(p._sigma_flat) if sig_c is None else None)
    step = bind(*runs)
    step.checked = bind(*(None if run is None else run.checked
                           for run in runs))
    step.constants = consts
    return step


def _stored_path(p: ProblemDefinition, sp: SimParams, q0, p0,
                 noise: NoisePath, control: ControlLike,
                 scheme: str) -> Trajectory:
    """Run make_step's `scheme` over the (T, h) grid and store the path;
    p0 is None for the first-order limit, whose paths carry no velocity."""
    eps = sp.eps
    steps = sp.steps
    q0 = _initial_position(p, sp, q0, noise)
    times = np.arange(steps + 1) * sp.h
    u_vals = _control_values(control, steps, p.r)
    step = make_step(p, eps, sp.h, scheme)

    lead = noise.increments.shape[:-2]
    q = np.empty((steps + 1,) + lead + (p.d,))
    pv = np.empty((steps + 1,) + lead + (0 if p0 is None else p.d,))
    q[0] = q0
    if p0 is not None:
        if np.shape(p0) not in ((p.d,), q[0].shape):
            raise ConfigError(f"p0 must have shape ({p.d},) or (M, {p.d})")
        pv[0] = np.asarray(p0, dtype=float) / eps
    inc = np.moveaxis(noise.increments, -2, 0)

    def advance(n, checked):
        q[n + 1], pv[n + 1] = (step.checked if checked else step)(
            q[n], pv[n], inc[n], None if u_vals is None else u_vals[n])
    run_trapped(steps, advance)

    if not np.all(np.isfinite(q[steps])):
        raise NumericalError("trajectory diverged (non-finite position)")
    return Trajectory(times=times, q=np.moveaxis(q, 0, -2),
                      p=np.moveaxis(pv, 0, -2), eps=eps)


def simulate_inertial(p: ProblemDefinition, sp: SimParams, q0, p0,
                      noise: NoisePath, control: ControlLike = None,
                      ) -> Trajectory:
    """Integrate the damped second-order system.

    q0: initial position, shape (d,), or (M, d) for a batch; a (d,) q0
        starts every row of batched noise.
    p0: original-scale momentum, (d,) or (M, d); the initial velocity is
        p0/eps.
    noise: Brownian increments on the (T, h) grid, one path or a batch.
    control: optional u on the step grid, (K, r) or (K+1, r).
    """
    return _stored_path(p, sp, q0, p0, noise, control, sp.scheme)


def simulate_first_order(p: ProblemDefinition, sp: SimParams, q0,
                         noise: NoisePath, control: ControlLike = None,
                         ) -> Trajectory:
    """Euler-Maruyama for the first-order limit equation; arguments as
    for simulate_inertial, and sp.scheme is not used."""
    return _stored_path(p, sp, q0, None, noise, control, "first_order")


def stochastic_convolution(tr: Trajectory, p: ProblemDefinition,
                           noise: NoisePath) -> Trajectory:
    """Stochastic convolution along a stored trajectory.

    H(t_n) = eps^(1/2-beta) * sum_{k<n} exp(-(A(t_n)-A(t_k))/eps^2)
             sigma(q(t_k)) dW_k,

    a left-point sum over A(t_n) = sum_{k<n} alpha(q(t_k)) h, run as
    H(t_{n+1}) = d_n (H(t_n) + eps^(1/2-beta) sigma(q(t_n)) dW_n), with
    make_step's decay d_n = exp(-alpha(q(t_n)) h/eps^2) and sigma
    evaluated once per step.  Returns the trajectory with H attached.
    """
    steps = tr.times.shape[0] - 1
    if noise.steps < steps:
        raise GridMismatchError(
            f"noise provides {noise.steps} steps, trajectory has {steps}")
    if abs(noise.dt * steps - (tr.times[-1] - tr.times[0])) > 1e-9:
        raise GridMismatchError("noise grid does not match trajectory grid")

    q = np.moveaxis(tr.q, -2, 0)[:-1]          # left points, (K, ..., d)
    inc = np.moveaxis(noise.increments, -2, 0)[:steps]
    h = tr.times[1] - tr.times[0] if steps else 0.0
    decay = np.exp(-p.eval_alpha(q) * h / (tr.eps * tr.eps))[..., None]
    amp = tr.eps ** (0.5 - p.beta)
    apply_sigma = sigma_applier(p)
    H = np.zeros((steps + 1,) + q.shape[1:])
    for n in range(steps):
        sig = p.eval_sigma(q[n]) if p.sigma_const is None else p.sigma_const
        H[n + 1] = decay[n] * (H[n] + amp * apply_sigma(sig, inc[n]))
    return replace(tr, convolution=np.moveaxis(H, 0, -2))


# ---------------------------------------------------------------------------
# artifact output

def dump_trajectory(tr: Trajectory, path: str) -> None:
    """Write a single trajectory as CSV (t, q_i, p_i, optional H_i),
    atomically; gzip-compressed when the path ends in .gz."""
    if tr.is_batch:
        raise ConfigError("dump_trajectory expects a single path, not a batch")
    d = tr.d
    cols = ["t"] + [f"q{i+1}" for i in range(d)]
    table = [tr.times, tr.q]
    if tr.p.shape[-1] > 0:
        cols += [f"p{i+1}" for i in range(d)]
        table.append(tr.p)
    if tr.convolution is not None:
        cols += [f"H{i+1}" for i in range(d)]
        table.append(tr.convolution)
    write_csv(path, cols, float_lines(np.column_stack(table).tolist()))
