"""Trajectory simulation for the damped second-order system and its limit.

The rescaled dynamics integrated here is

    eps^2 q'' = b(q) - alpha(q) q' + sigma(q) u + eps^(1/2-beta) sigma(q) w'

with initial velocity q'(0) = p0/eps, together with the first-order limit

    g' = b(g)/alpha(g) + sigma(g) u / alpha(g) + eps^(1/2-beta) sigma(g)/alpha(g) w'.

The stiff system has one step, built by make_step and used both by
simulate_inertial, which stores the path, and by the streaming exit
kernel.  Its default exponential scheme freezes coefficients over a step
and advances the velocity as an Ornstein-Uhlenbeck bridge, which keeps it
stable for steps far larger than eps^2, with the position updated by the
exact integral of the frozen relaxation (the noise part of the position
keeps the trapezoidal weight h/2).  The explicit Euler-Maruyama scheme is
retained as a cross check and only accepts h <= default_step.

default_step is the package's one step-size rule, alpha_max h / eps^2 =
0.2, and snap_step shortens a step so that it divides the horizon.

Noise is reproducible: every path owns a counter-based generator keyed by
mixing (seed, stream_id) through a fixed 64-bit finalizer, so results do
not depend on scheduling or batch composition.
"""

from __future__ import annotations

import gzip
import io
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError
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


def make_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, stream_id)."""
    k0 = mix64(seed & _MASK64)
    k1 = mix64(k0 ^ mix64(stream_id & _MASK64))
    key = np.array([k0, k1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class NoisePath:
    """Brownian increments on a uniform grid; increment variance equals dt."""

    dt: float
    increments: np.ndarray  # (steps, r) or (M, steps, r)
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
        if steps < 1 or r < 1 or dt <= 0:
            raise ConfigError("NoisePath needs steps >= 1, r >= 1, dt > 0")
        gen = make_generator(seed, stream_id)
        inc = gen.standard_normal((steps, r)) * np.sqrt(dt)
        return cls(dt=dt, increments=inc, seed=seed, stream_id=stream_id)

    @classmethod
    def generate_batch(cls, seed: int, stream_ids: Sequence[int], steps: int,
                       r: int, dt: float) -> "NoisePath":
        """Stack of independent paths; stream ids are pre-assigned so the
        result is identical however the batch is later split."""
        inc = np.empty((len(stream_ids), steps, r))
        root = np.sqrt(dt)
        for row, sid in enumerate(stream_ids):
            inc[row] = make_generator(seed, sid).standard_normal((steps, r)) * root
        return cls(dt=dt, increments=inc, seed=seed, stream_id=-1)

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


ControlLike = Union[None, np.ndarray, Callable]


def _control_values(control: ControlLike, times: np.ndarray, steps: int,
                    r: int) -> Optional[np.ndarray]:
    """Control values at left endpoints of the steps, shape (steps, r)."""
    if control is None:
        return None
    if callable(control):
        vals = np.asarray([np.atleast_1d(control(t)) for t in times[:-1]],
                          dtype=float)
    else:
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
    """q0 as a (d,) or (M, d) array, checked against the noise grid."""
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
    the left point.

    Returns step(q, v, dW, u=None) -> (q1, v1, alpha): positions and
    velocities (..., d), Brownian increments dW (..., r), an optional
    control value u (r,), and the friction at q, (...,) or a float when
    constant, for the friction integral.  The Euler scheme raises
    StabilityError for h > default_step.
    """
    if scheme not in ("exponential", "euler"):
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
    sig_c = p.eval_sigma(p.O[None, :])[0] if p.sigma_is_constant else None
    al_c = float(p.eval_alpha(p.O[None, :])[0]) if p.alpha_is_constant \
        else None
    if al_c is not None:
        decay_c = np.exp(-(al_c * h / eps2))
        mu1_c = (eps2 / al_c) * (1.0 - decay_c)
        amp_c = noise_pow * np.sqrt((1.0 - decay_c**2) / (2.0 * al_c * eps2))

    def frozen(q, u):
        sig = sig_c if sig_c is not None else p.eval_sigma(q)
        al = al_c if al_c is not None else p.eval_alpha(q)[..., None]
        drift = p.eval_b(q)
        if u is not None:
            drift = drift + _apply_sigma(sig, u)
        return sig, al, drift

    def euler(q, v, dW, u=None):
        sig, al, drift = frozen(q, u)
        v1 = (v + (h / eps2) * (drift - al * v)
              + noise_pow * _apply_sigma(sig, dW) / eps2)
        return q + h * v, v1, al if al_c is not None else al[..., 0]

    def exponential(q, v, dW, u=None):
        sig, al, drift = frozen(q, u)
        if al_c is None:
            decay = np.exp(-al * h / eps2)
            mu1 = (eps2 / al) * (1.0 - decay)
            amp = noise_pow * np.sqrt((1.0 - decay**2) / (2.0 * al * eps2))
        else:
            decay, mu1, amp = decay_c, mu1_c, amp_c
        drift = drift / al
        xi = amp * _apply_sigma(sig, dW) / sqrt_h
        v1 = decay * v + (1.0 - decay) * drift + xi
        q1 = q + v * mu1 + drift * (h - mu1) + (0.5 * h) * xi
        return q1, v1, al if al_c is not None else al[..., 0]

    return euler if scheme == "euler" else exponential


def simulate_inertial(p: ProblemDefinition, sp: SimParams, q0, p0,
                      noise: NoisePath, control: ControlLike = None,
                      ) -> Trajectory:
    """Integrate the damped second-order system.

    q0: initial position, shape (d,) or (M, d) for a batch.
    p0: original-scale momentum; the initial velocity is p0/eps.
    noise: Brownian increments on the (T, h) grid (batched to match q0).
    control: optional u, callable of t or an array on the step grid.
    """
    eps = sp.eps
    steps = sp.steps
    q0 = _initial_position(p, sp, q0, noise)
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), q0.shape).copy()
    times = np.arange(steps + 1) * sp.h
    u_vals = _control_values(control, times, steps, p.r)
    step = make_step(p, eps, sp.h, sp.scheme)

    lead = q0.shape[:-1]
    q = np.empty(lead + (steps + 1, p.d))
    pv = np.empty(lead + (steps + 1, p.d))
    A = np.empty(lead + (steps + 1,))
    q[..., 0, :] = q0
    pv[..., 0, :] = p0 / eps
    A[..., 0] = 0.0
    inc = noise.increments
    for n in range(steps):
        q[..., n + 1, :], pv[..., n + 1, :], al = step(
            q[..., n, :], pv[..., n, :], inc[..., n, :],
            None if u_vals is None else u_vals[n])
        A[..., n + 1] = A[..., n] + al * sp.h

    if not np.all(np.isfinite(q[..., steps, :])):
        raise NumericalError("trajectory diverged (non-finite position)")
    return Trajectory(times=times, q=q, p=pv, eps=eps, friction_integral=A)


def simulate_first_order(p: ProblemDefinition, sp: SimParams, q0,
                         noise: NoisePath, control: ControlLike = None,
                         ) -> Trajectory:
    """Euler-Maruyama for the first-order limit equation."""
    eps = sp.eps
    steps = sp.steps
    q0 = _initial_position(p, sp, q0, noise)
    times = np.arange(steps + 1) * sp.h
    u_vals = _control_values(control, times, steps, p.r)

    lead = q0.shape[:-1]
    q = np.empty(lead + (steps + 1, p.d))
    A = np.empty(lead + (steps + 1,))
    q[..., 0, :] = q0
    A[..., 0] = 0.0
    h = sp.h
    noise_pow = eps ** (0.5 - p.beta)
    inc = noise.increments

    for n in range(steps):
        qn = q[..., n, :]
        al = p.eval_alpha(qn)[..., None]
        drift = p.eval_b(qn)
        sig_n = p.eval_sigma(qn)
        if u_vals is not None:
            drift = drift + _apply_sigma(sig_n, u_vals[n])
        dW = inc[..., n, :]
        q[..., n + 1, :] = (qn + h * drift / al
                            + noise_pow * _apply_sigma(sig_n, dW) / al)
        A[..., n + 1] = A[..., n] + al[..., 0] * h

    if not np.all(np.isfinite(q[..., steps, :])):
        raise NumericalError("trajectory diverged (non-finite position)")
    return Trajectory(times=times, q=q,
                      p=np.zeros(lead + (steps + 1, 0)),
                      eps=eps, friction_integral=A)


def rescale_to_original_time(tr: Trajectory, inverse: bool = False,
                             ) -> Trajectory:
    """View of the path on the original (slow) clock: times scaled by 1/eps,
    values unchanged.  inverse=True undoes the scaling."""
    factor = tr.eps if inverse else 1.0 / tr.eps
    return replace(tr, times=tr.times * factor)


def stochastic_convolution(tr: Trajectory, p: ProblemDefinition,
                           noise: NoisePath, stride: int = 1) -> Trajectory:
    """Stochastic convolution along a stored trajectory.

    H(t_n) = eps^(1/2-beta) * sum_{k<n} exp(-(A(t_n)-A(t_k))/eps^2)
             sigma(q(t_k)) dW_k,

    a left-point sum evaluated with the stored friction_integral.  With
    stride > 1 the sum is the coarse Riemann evaluation on the subsampled
    grid (increments aggregated per coarse cell, each cell decayed from
    its own left endpoint); that is a different, much smaller object than
    H at the coarse times whenever the coarse cell exceeds the relaxation
    time eps^2/alpha.  Returns the (subsampled) trajectory with H
    attached.
    """
    steps = tr.times.shape[0] - 1
    if noise.steps < steps:
        raise GridMismatchError(
            f"noise provides {noise.steps} steps, trajectory has {steps}")
    if abs(noise.dt * steps - (tr.times[-1] - tr.times[0])) > 1e-9:
        raise GridMismatchError("noise grid does not match trajectory grid")
    if stride < 1 or steps % stride != 0:
        raise GridMismatchError(f"stride {stride} must divide {steps} steps")

    sl = slice(None, None, stride)
    q = tr.q[..., sl, :]
    A = tr.friction_integral[..., sl]
    times = tr.times[sl]
    inc = noise.increments[..., :steps, :]
    if stride > 1:
        shp = inc.shape
        inc = inc.reshape(shp[:-2] + (steps // stride, stride, shp[-1])
                          ).sum(axis=-2)
    m = q.shape[-2] - 1

    eps2 = tr.eps**2
    noise_pow = tr.eps ** (0.5 - p.beta)
    H = np.zeros_like(q)
    for n in range(m):
        sig_n = p.eval_sigma(q[..., n, :])
        kick = noise_pow * _apply_sigma(sig_n, inc[..., n, :])
        decay = np.exp(-(A[..., n + 1] - A[..., n]) / eps2)[..., None]
        H[..., n + 1, :] = decay * (H[..., n, :] + kick)

    return Trajectory(times=times, q=q, p=tr.p[..., sl, :], eps=tr.eps,
                      friction_integral=A, convolution=H)


# ---------------------------------------------------------------------------
# artifact output

def _format_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def dump_trajectory(tr: Trajectory, path: str) -> None:
    """Write a single trajectory as CSV (t, q_i, p_i, optional H_i);
    gzip-compressed when the path ends in .gz."""
    if tr.is_batch:
        raise ConfigError("dump_trajectory expects a single path, not a batch")
    d = tr.d
    cols = ["t"] + [f"q{i+1}" for i in range(d)]
    has_p = tr.p.shape[-1] > 0
    if has_p:
        cols += [f"p{i+1}" for i in range(d)]
    if tr.convolution is not None:
        cols += [f"H{i+1}" for i in range(d)]
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for n in range(tr.times.shape[0]):
        row = [tr.times[n], *tr.q[n]]
        if has_p:
            row += list(tr.p[n])
        if tr.convolution is not None:
            row += list(tr.convolution[n])
        buf.write(_format_row(row) + "\n")
    data = buf.getvalue().encode()
    if path.endswith(".gz"):
        # mtime and FNAME pinned so identical content gives identical bytes
        with open(path, "wb") as raw, \
                gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                              mtime=0) as fh:
            fh.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)
