"""Path-space action functionals and the controlled skeleton flow.

For an absolutely continuous path f on [0, T] the rate functional is

    I(f) = 1/2 int_0^T  (alpha(f) f' - b(f))^T  a(f)^{-1}  (alpha(f) f' - b(f)) ds,

with a = sigma sigma^T; it equals half the smallest control energy
int |u|^2 over controls u steering f' = b(f)/alpha(f) + sigma(f) u / alpha(f).
An alternative quadratic form replaces alpha f' - b by f' - alpha b; the two
give the same quasipotential once the travel time is optimized, and both are
discretized the same way: forward differences on segments, coefficients at
segment midpoints.

The drift-free form 1/2 int alpha^2 f'^T a^{-1} f' appears as the transport
cost inside reaction-front functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, NumericalError
from .expr import grad_field
from .fields import ProblemDefinition

COND_LIMIT = 1e8
# L-BFGS-B options of the action solves (quasipotential, Laplace check)
LBFGS_ACTION = {"maxiter": 5000, "maxfun": 20000, "ftol": 1e-14,
                "gtol": 1e-9}


class SingularSigmaError(NumericalError):
    pass


@dataclass
class DiscretePath:
    """Uniform-grid path on [0, T]; points has shape (N+1, d)."""

    T: float
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.T <= 0:
            raise ConfigError("path duration T must be positive")
        if self.points.ndim != 2 or self.points.shape[0] < 2:
            raise ConfigError("path needs at least two points of shape (N+1, d)")

    @property
    def N(self) -> int:
        return self.points.shape[0] - 1

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass
class ControlSignal:
    """Control values on the node grid of [0, T]; shape (N+1, r).

    gamma, when set, is an energy budget: building a signal whose
    half-energy exceeds gamma raises.
    """

    T: float
    values: np.ndarray
    gamma: Optional[float] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.T <= 0:
            raise ConfigError("control duration T must be positive")
        if self.values.shape[0] < 2:
            raise ConfigError("control needs at least two grid values")
        if self.gamma is not None and control_cost(self) > self.gamma:
            raise ConfigError(
                f"control energy {control_cost(self):.6g} exceeds the "
                f"declared budget gamma = {self.gamma:.6g}")

    @property
    def N(self) -> int:
        return self.values.shape[0] - 1

    @property
    def r(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass
class ActionValue:
    total: float
    per_segment: np.ndarray


_MODES = ("standard", "alt", "driftfree")


def _midpoint_data(p: ProblemDefinition, f: DiscretePath):
    pts = f.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    delta = (pts[1:] - pts[:-1]) / f.h
    alpha = p.eval_alpha(mids)
    sig = p.eval_sigma(mids)
    sv = np.linalg.svd(sig, compute_uv=False)
    min_sv = sv[..., -1]
    if np.any(min_sv <= 0) or np.any(sv[..., 0] / np.maximum(min_sv, 1e-300)
                                     > COND_LIMIT):
        k = int(np.argmin(min_sv))
        raise SingularSigmaError(
            f"sigma is numerically singular at path point {mids[k]} "
            f"(min singular value {min_sv[k]:.3g})")
    a = sig @ np.swapaxes(sig, -1, -2)
    return mids, delta, alpha, a


def _residual(p, mode, mids, delta, alpha):
    if mode == "standard":
        return alpha[:, None] * delta - p.eval_b(mids)
    if mode == "alt":
        return delta - alpha[:, None] * p.eval_b(mids)
    if mode == "driftfree":
        return alpha[:, None] * delta
    raise ConfigError(f"unknown action mode {mode!r}")


def segment_costs(p: ProblemDefinition, f: DiscretePath,
                  mode: str = "standard") -> np.ndarray:
    """Per-segment action contributions, shape (N,)."""
    mids, delta, alpha, a = _midpoint_data(p, f)
    y = _residual(p, mode, mids, delta, alpha)
    w = np.linalg.solve(a, y[..., None])[..., 0]
    return 0.5 * f.h * np.sum(y * w, axis=-1)


def segment_costs_grad(p: ProblemDefinition, f: DiscretePath,
                       mode: str = "standard"):
    """Per-segment costs plus their gradients w.r.t. the two endpoints.

    Returns (costs (N,), g_left (N, d), g_right (N, d)) where g_left[k] is
    d cost_k / d f_k and g_right[k] is d cost_k / d f_{k+1}.  The gradient
    is assembled analytically from the midpoint-frozen quadratic form;
    coefficient derivatives come from the field derivative machinery
    (symbolic for polynomial trees, centered differences otherwise).
    """
    h = f.h
    d = f.d
    mids, delta, alpha, a = _midpoint_data(p, f)
    y = _residual(p, mode, mids, delta, alpha)
    w = np.linalg.solve(a, y[..., None])[..., 0]
    costs = 0.5 * h * np.sum(y * w, axis=-1)

    grad_alpha = (grad_field(p.alpha, mids, d)
                  if not p.alpha_is_constant else np.zeros_like(mids))
    if mode in ("standard", "alt"):
        bmid = p.eval_b(mids)
        jac_b = np.empty(mids.shape[:-1] + (d, d))
        for i, expr in enumerate(p.b):
            jac_b[..., i, :] = grad_field(expr, mids, d)
    # symmetric part: dependence of the quadratic form on the midpoint
    sym = np.zeros_like(mids)
    if mode in ("standard", "driftfree"):
        # residual y = alpha*delta - b (b = 0 for driftfree)
        wd = np.sum(w * delta, axis=-1)
        sym += wd[:, None] * grad_alpha
        if mode == "standard":
            sym -= np.einsum("kij,ki->kj", jac_b, w)
    else:
        # residual y = delta - alpha*b
        wb = np.sum(w * bmid, axis=-1)
        sym -= wb[:, None] * grad_alpha
        sym -= alpha[:, None] * np.einsum("kij,ki->kj", jac_b, w)
    if not p.sigma_is_constant:
        # d a^{-1} = -a^{-1} (d a) a^{-1}; contributes -(h/4) w^T da/dq_j w
        step = 1e-5 * (1.0 + np.linalg.norm(mids, axis=-1))
        for j in range(d):
            hp, hm = mids.copy(), mids.copy()
            hp[:, j] += step
            hm[:, j] -= step
            da = (p.eval_a(hp) - p.eval_a(hm)) / (2.0 * step)[:, None, None]
            quad = np.einsum("ki,kij,kj->k", w, da, w)
            sym[:, j] -= 0.5 * quad
    sym *= 0.5 * h

    # antisymmetric part: dependence through the forward difference
    if mode == "alt":
        skew = w
    else:
        skew = alpha[:, None] * w
    g_left = -skew + sym
    g_right = skew + sym
    return costs, g_left, g_right


def node_gradient(g_left: np.ndarray, g_right: np.ndarray,
                  pin_end: bool) -> np.ndarray:
    """Gradient of the summed segment costs w.r.t. the free nodes 1..N-1,
    or 1..N when the last node is free too (node 0 is always pinned)."""
    inner = g_right[:-1] + g_left[1:]
    if pin_end:
        return inner
    return np.concatenate([inner, g_right[-1:]])


def minimize_path(p: ProblemDefinition, T: float, init: np.ndarray, body,
                  mode: str, *, pin_end: bool, options: dict = LBFGS_ACTION):
    """L-BFGS-B over the nodes of a uniform-grid path on [0, T].

    Node 0 of the (N+1, d) starting path init stays fixed, and so does its
    last node when pin_end.  Each iterate's `mode` segment costs and their
    endpoint gradients go to body(pts, costs, g_left, g_right), which
    returns the objective and its gradient over the free nodes.  Returns
    the final (N+1, d) path and scipy's result (fun and jac there, nit,
    success).
    """
    init = np.asarray(init, dtype=float)
    free = slice(1, -1 if pin_end else None)
    shape = init[free].shape

    def unpack(x):
        pts = init.copy()
        pts[free] = x.reshape(shape)
        return pts

    def objective(x):
        pts = unpack(x)
        costs, g_left, g_right = segment_costs_grad(
            p, DiscretePath(T=T, points=pts), mode)
        value, grad = body(pts, costs, g_left, g_right)
        return value, grad.ravel()

    res = minimize(objective, init[free].ravel(), jac=True,
                   method="L-BFGS-B", options=options)
    return unpack(res.x), res


def path_action(p: ProblemDefinition, f: DiscretePath) -> ActionValue:
    """Rate functional of a path: half the minimal control energy."""
    seg = segment_costs(p, f, "standard")
    return ActionValue(total=float(np.sum(seg)), per_segment=seg)


def path_action_alt(p: ProblemDefinition, f: DiscretePath) -> ActionValue:
    """Alternative quadratic form with residual f' - alpha b; yields the
    same quasipotential after minimizing over the travel time."""
    seg = segment_costs(p, f, "alt")
    return ActionValue(total=float(np.sum(seg)), per_segment=seg)


def control_cost(u: ControlSignal) -> float:
    """Half the trapezoidal energy of the control signal."""
    sq = np.sum(u.values**2, axis=1)
    return float(0.5 * np.trapezoid(sq, dx=u.T / u.N))


def controlled_skeleton(p: ProblemDefinition, u: ControlSignal, q0,
                        ) -> DiscretePath:
    """Integrate the controlled limit flow q' = (b + sigma u)/alpha with a
    classical fourth-order one-step method; u is interpolated linearly."""
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (p.d,):
        raise ConfigError(f"q0 must have shape ({p.d},)")
    if u.r != p.r:
        raise ConfigError(f"control has r = {u.r}, problem needs {p.r}")
    N = u.N
    h = u.T / N
    out = np.empty((N + 1, p.d))
    out[0] = q0

    def rhs(q, uval):
        drift = p.eval_b(q) + p.eval_sigma(q) @ uval
        return drift / p.eval_alpha(q[None, :])[0]

    vals = u.values
    for n in range(N):
        qn = out[n]
        u0 = vals[n]
        um = 0.5 * (vals[n] + vals[n + 1])
        u1 = vals[n + 1]
        k1 = rhs(qn, u0)
        k2 = rhs(qn + 0.5 * h * k1, um)
        k3 = rhs(qn + 0.5 * h * k2, um)
        k4 = rhs(qn + h * k3, u1)
        out[n + 1] = qn + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NumericalError("skeleton flow diverged")
    return DiscretePath(T=u.T, points=out)

