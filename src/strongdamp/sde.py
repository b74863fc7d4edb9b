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
simulate_first_order, and the streaming exit kernel.  The step runs the
compiled field closures unchecked; each loop owns one floating-point trap
scope (expr.run_trapped) and re-runs a trapped step on the checked
evaluators, so EvalDomainError still names the sub-expression.

default_step is the package's one step-size rule, alpha_max h / eps^2 =
0.2, and snap_step shortens a step so that it divides the horizon.

Noise is reproducible: every path owns a counter-based Philox stream keyed
by mixing (seed, stream_id) through a fixed 64-bit finalizer, so results
do not depend on scheduling or batch composition.  A batch draw and the
exit kernel re-key one Philox bit generator per row (philox_states)
instead of building a generator per row, which gives the same numbers.
NoisePath.batches is the one place that splits M paths into batches of
consecutive stream ids; every Monte Carlo loop over stored paths draws
through it.

Batched paths are stored time-major, (K+1, M, d), so each step reads and
writes contiguous (M, d) blocks; batch draws store their increments the
same way.  The arrays handed out keep the (M, K+1, d) and (M, K, r) shapes
as views of that storage.  A (d,) start drives every row of a batch.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .artifacts import atomic_file, float_lines
from .errors import ConfigError, NumericalError
from .expr import compiled_all, run_trapped
from .fields import ProblemDefinition


class StabilityError(NumericalError):
    pass


class GridMismatchError(ConfigError):
    pass


_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer; avalanche-mixes a 64-bit word."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def philox_states(seed: int, stream_ids: Iterable[int]) -> Iterator[dict]:
    """Per stream id, the Philox state starting (seed, stream_id)'s stream:
    its mixed key, a zero counter and an empty buffer."""
    k0 = mix64(int(seed) & _MASK64)
    zero = np.zeros(4, dtype=np.uint64)
    for sid in stream_ids:
        key = k0, mix64(k0 ^ mix64(int(sid) & _MASK64))
        yield {"bit_generator": "Philox",
               "state": {"counter": zero, "key": key}, "buffer": zero,
               "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def make_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, stream_id)."""
    key = next(philox_states(seed, [stream_id]))["state"]["key"]
    return np.random.Generator(
        np.random.Philox(key=np.array(key, dtype=np.uint64)))


@dataclass
class NoisePath:
    """Brownian increments on a uniform grid; increment variance equals dt."""

    dt: float
    increments: np.ndarray  # (steps, r) or (M, steps, r); batches time-major
    seed: int = -1
    stream_id: int = -1

    @property
    def steps(self) -> int:
        return self.increments.shape[-2]

    @property
    def r(self) -> int:
        return self.increments.shape[-1]

    @classmethod
    def generate(cls, seed: int, stream_id: int, steps: int, r: int,
                 dt: float) -> "NoisePath":
        batch = cls.generate_batch(seed, [stream_id], steps, r, dt)
        return cls(dt=dt, increments=batch.increments[0], seed=seed,
                   stream_id=stream_id)

    @classmethod
    def generate_batch(cls, seed: int, stream_ids: Sequence[int], steps: int,
                       r: int, dt: float) -> "NoisePath":
        """Stack of independent paths; stream ids are pre-assigned so the
        result is identical however the batch is later split.

        Row i holds make_generator(seed, stream_ids[i]).standard_normal(
        (steps, r)) * sqrt(dt): one Philox bit generator is re-keyed per
        row, to its philox_states entry, so no buffered word of one row
        reaches the next.
        """
        if steps < 1 or r < 1 or dt <= 0:
            raise ConfigError("NoisePath needs steps >= 1, r >= 1, dt > 0")
        inc = np.empty((steps, len(stream_ids), r))
        root = np.sqrt(dt)
        bits = np.random.Philox(0)
        gen = np.random.Generator(bits)
        draw = np.empty((steps, r))
        for row, state in enumerate(philox_states(seed, stream_ids)):
            bits.state = state
            gen.standard_normal(out=draw)
            np.multiply(draw, root, out=inc[:, row])
        return cls(dt=dt, increments=inc.transpose(1, 0, 2), seed=seed,
                   stream_id=-1)

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
        return NoisePath(dt=self.dt * factor, increments=grouped.sum(axis=-2),
                         seed=self.seed, stream_id=self.stream_id)


def default_step(p: ProblemDefinition, eps: float) -> float:
    """Step with a fixed relaxation resolution alpha_max*h/eps^2 = 0.2."""
    return 0.2 * eps**2 / p.alpha_max


def snap_step(T: float, h: float, min_steps: int = 1) -> float:
    """T split into the fewest equal steps, at least min_steps, that are
    no longer than h (up to rounding)."""
    return T / max(math.ceil(T / h - 1e-9), min_steps)


ROW_STEPS_PER_BATCH = 2**19


def batch_rows(steps: int) -> int:
    """Rows per stored batch of `steps`-step paths: the row-step budget
    ROW_STEPS_PER_BATCH (about 4 MB per stored array), at least one row."""
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
        if self.T <= 0 or self.h <= 0:
            raise ConfigError("T and h must be positive")
        if self.scheme not in ("exponential", "euler"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        n = round(self.T / self.h)
        if n < 1 or abs(n * self.h - self.T) > 1e-9 * max(1.0, self.T):
            raise ConfigError("T must be an integer multiple of h")

    @property
    def steps(self) -> int:
        return round(self.T / self.h)


@dataclass
class Trajectory:
    """A realization on a uniform grid.  Arrays may carry a leading batch
    axis; `p` is empty (last axis 0) for first-order paths."""

    times: np.ndarray        # (K+1,)
    q: np.ndarray            # (..., K+1, d)
    p: np.ndarray            # (..., K+1, d) or (..., K+1, 0)
    eps: float
    friction_integral: np.ndarray  # (..., K+1), integral of alpha along the path
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
                       friction_integral=self.friction_integral[i],
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


def make_step(p: ProblemDefinition, eps: float, h: float,
              scheme: str = "exponential") -> Callable:
    """One step of the damped second-order system, coefficients frozen at
    the left point, or with scheme "first_order" one Euler-Maruyama step
    of the first-order limit equation.

    Returns step(q, v, dW, u=None) -> (q1, v1, alpha): positions and
    velocities (..., d), Brownian increments dW (..., r), an optional
    control value u (r,), and the friction at q, (...,) or a float when
    constant, for the friction integral.  The first-order step hands v
    back unchanged.  The Euler scheme raises StabilityError for
    h > default_step.  step runs the compiled field closures unchecked,
    under run_trapped; step.checked is the step on p's checked evaluators.
    """
    if scheme not in ("exponential", "euler", "first_order"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    if scheme == "euler":
        h_max = default_step(p, eps)
        if h > h_max * (1 + 1e-9):
            raise StabilityError(
                f"euler scheme needs h <= 0.2*eps^2/alpha_max = {h_max:.3e}, "
                f"got h = {h:.3e}")
    eps2 = eps * eps
    noise_pow = eps ** (0.5 - p.beta)
    sqrt_h = math.sqrt(h)
    h_eps2 = h / eps2
    half_h = 0.5 * h
    sig_c = p.eval_sigma(p.O[None, :])[0] if p.sigma_is_constant else None
    al_c = float(p.eval_alpha(p.O[None, :])[0]) if p.alpha_is_constant \
        else None

    def relax(al):     # decay, 1 - decay, mu1, h - mu1, noise amplitude
        decay = np.exp(-al * h / eps2)
        mu1 = (eps2 / al) * (1.0 - decay)
        amp = noise_pow * np.sqrt((1.0 - decay**2) / (2.0 * al * eps2))
        return decay, 1.0 - decay, mu1, h - mu1, amp
    relax_c = relax(al_c) if al_c is not None else None
    # a constant square diagonal sigma multiplies elementwise, and the
    # identity not at all: the einsum's sum would only add exact zeros
    apply_sigma = _apply_sigma
    if sig_c is not None and p.d == p.r and np.array_equal(
            sig_c, np.diag(diag := np.diagonal(sig_c))):
        apply_sigma = (lambda sig, vec: vec) if np.all(diag == 1.0) \
            else (lambda sig, vec: vec * diag)

    def bind(b_of, alpha_of, sigma_of):
        def frozen(q, u):
            sig = sig_c if sig_c is not None else sigma_of(q)
            al = al_c if al_c is not None else alpha_of(q)
            drift = b_of(q)
            if u is not None:
                drift = drift + apply_sigma(sig, u)
            return sig, al, drift

        def euler(q, v, dW, u=None):
            sig, al, drift = frozen(q, u)
            v1 = (v + h_eps2 * (drift - al * v)
                  + noise_pow * apply_sigma(sig, dW) / eps2)
            return q + h * v, v1, al if al_c is not None else al[..., 0]

        def exponential(q, v, dW, u=None):
            sig, al, drift = frozen(q, u)
            decay, keep, mu1, h_mu1, amp = (
                relax_c if relax_c is not None else relax(al))
            drift = drift / al
            xi = amp * apply_sigma(sig, dW) / sqrt_h
            v1 = decay * v + keep * drift + xi
            q1 = q + v * mu1 + drift * h_mu1 + half_h * xi
            return q1, v1, al if al_c is not None else al[..., 0]

        def first_order(q, v, dW, u=None):
            sig, al, drift = frozen(q, u)
            q1 = q + h * drift / al + noise_pow * apply_sigma(sig, dW) / al
            return q1, v, al if al_c is not None else al[..., 0]

        return {"euler": euler, "exponential": exponential,
                "first_order": first_order}[scheme]

    # the constant fields are frozen above; only the others get evaluators
    alpha_of = sigma_of = None
    if al_c is None:
        alpha_of = compiled_all([p.alpha])
    if sig_c is None:
        flat_sigma = compiled_all(p._sigma_flat)

        def sigma_of(q):
            return flat_sigma(q).reshape(q.shape[:-1] + (p.d, p.r))
    step = bind(compiled_all(p.b), alpha_of, sigma_of)
    step.checked = bind(p.eval_b, lambda q: p.eval_alpha(q)[..., None],
                        p.eval_sigma)
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
    A = np.empty((steps + 1,) + lead)
    q[0] = q0
    if p0 is not None:
        pv[0] = np.asarray(p0, dtype=float) / eps
    A[0] = 0.0
    inc = np.moveaxis(noise.increments, -2, 0)

    def advance(n, checked):
        q[n + 1], pv[n + 1], al = (step.checked if checked else step)(
            q[n], pv[n], inc[n], None if u_vals is None else u_vals[n])
        A[n + 1] = A[n] + al * sp.h
    run_trapped(steps, advance)

    if not np.all(np.isfinite(q[steps])):
        raise NumericalError("trajectory diverged (non-finite position)")
    return Trajectory(times=times, q=np.moveaxis(q, 0, -2),
                      p=np.moveaxis(pv, 0, -2), eps=eps,
                      friction_integral=np.moveaxis(A, 0, -1))


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

    a left-point sum evaluated with the stored friction_integral.  Returns
    the trajectory with H attached.
    """
    steps = tr.times.shape[0] - 1
    if noise.steps < steps:
        raise GridMismatchError(
            f"noise provides {noise.steps} steps, trajectory has {steps}")
    if abs(noise.dt * steps - (tr.times[-1] - tr.times[0])) > 1e-9:
        raise GridMismatchError("noise grid does not match trajectory grid")

    q = np.moveaxis(tr.q, -2, 0)
    A = np.moveaxis(tr.friction_integral, -1, 0)
    inc = np.moveaxis(noise.increments, -2, 0)
    eps2 = tr.eps**2
    noise_pow = tr.eps ** (0.5 - p.beta)
    H = np.zeros(q.shape)
    for n in range(steps):
        sig_n = p.eval_sigma(q[n])
        kick = noise_pow * _apply_sigma(sig_n, inc[n])
        decay = np.exp(-(A[n + 1] - A[n]) / eps2)[..., None]
        H[n + 1] = decay * (H[n] + kick)
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
    lines = float_lines(np.column_stack(table).tolist())
    data = ("\n".join([",".join(cols), *lines]) + "\n").encode()
    with atomic_file(path) as raw:
        if path.endswith(".gz"):
            # mtime and FNAME pinned so identical content gives identical bytes
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                               mtime=0) as fh:
                fh.write(data)
        else:
            raw.write(data)
