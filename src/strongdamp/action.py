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

action_kernel is the one copy of this arithmetic, built once per grid:
minimize_path, the L-BFGS driver of every quasipotential, front value and
Laplace solve, calls it once per iterate, and segment_costs applies it once.
Each call runs under one floating-point trap; a field stack that leaves
its domain re-runs on the checked walker, which raises EvalDomainError
naming the sub-expression.  controlled_skeleton's RK4 stages read
make_step's evaluator sde.frozen_fields, all N steps under one trap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .expr import compiled_all, run_trapped
from .fields import ProblemDefinition
from .sde import frozen_fields

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
    def h(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass
class ControlSignal:
    """Control values on the node grid of [0, T]; shape (N+1, r)."""

    T: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.T <= 0:
            raise ConfigError("control duration T must be positive")
        if self.values.shape[0] < 2:
            raise ConfigError("control needs at least two grid values")

    @property
    def N(self) -> int:
        return self.values.shape[0] - 1

    @property
    def r(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


_MODES = ("standard", "alt", "driftfree")


def _check_sigma(sig: np.ndarray, mids=None) -> None:
    """Raise SingularSigmaError unless each sigma of the stack (..., d, r) has
    condition number at most COND_LIMIT; mids are where it was evaluated."""
    sv = np.linalg.svd(sig, compute_uv=False)
    min_sv = sv[..., -1]
    if np.any(min_sv <= 0) or np.any(sv[..., 0] / np.maximum(min_sv, 1e-300)
                                     > COND_LIMIT):
        k = int(np.argmin(min_sv))
        where = "" if mids is None else f" at path point {mids[k]}"
        raise SingularSigmaError(
            f"sigma is numerically singular{where} "
            f"(min singular value {min_sv[k]:.3g})")


def action_kernel(p: ProblemDefinition, T: float, N: int,
                  mode: str = "standard") -> Callable:
    """kernel(pts) -> (costs (N,), g_left (N, d), g_right (N, d)) for the
    nodes pts (N+1, d) of a path on [0, T]: the `mode` segment costs and
    their gradients d cost_k / d f_k and d cost_k / d f_{k+1}, from the
    midpoint-frozen quadratic form and the fields' symbolic derivatives.

    Built once per solve: the varying fields go into one compiled stack,
    and a constant sigma is checked and squared here (w = y when a = I, as
    LAPACK returns it).  A call runs under one trap scope (run_trapped):
    a stack that traps re-runs on the checked walker, which raises
    EvalDomainError naming the sub-expression.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown action mode {mode!r}")
    d, r, h, with_b = p.d, p.r, T / N, mode != "driftfree"
    al_c = p.alpha_const
    sig_c = None if p.sigma_const is None else p.sigma_const[None]
    if sig_c is not None:
        _check_sigma(sig_c)
    a_c = None if sig_c is None else sig_c @ np.swapaxes(sig_c, -1, -2)
    identity = a_c is not None and np.array_equal(a_c[0], np.eye(d))
    zero_grad = np.zeros((N, d))

    def grads(exprs):
        return [e.derivative(j) for e in exprs for j in range(d)]
    # the varying fields, in the order the walker reports them
    stack, cut = [], {}
    for name, exprs, shape, varies in (
            ("alpha", [p.alpha], (1,), al_c is None),
            ("sig", p._sigma_flat, (d, r), sig_c is None),
            ("b", p.b, (d,), with_b),
            ("grad_alpha", grads([p.alpha]), (d,), al_c is None),
            ("jac_b", grads(p.b), (d, d), with_b),
            ("dsig", grads(p._sigma_flat), (d, r, d), sig_c is None)):
        if varies:
            cut[name] = (slice(len(stack), len(stack) + len(exprs)),
                         (N,) + shape)
            stack += exprs

    run = compiled_all(stack)

    def kernel(pts):
        mids = 0.5 * (pts[:-1] + pts[1:])
        delta = (pts[1:] - pts[:-1]) / h
        out = run(mids)
        # each field in C order: the einsum and matmul calls below were
        # checked bit for bit on such arrays
        val = {k: np.ascontiguousarray(out[:, s]).reshape(shape)
               for k, (s, shape) in cut.items()}
        alpha = val.get("alpha", al_c)
        grad_alpha = val.get("grad_alpha", zero_grad)
        bmid, jac_b = val.get("b"), val.get("jac_b")
        a = a_c
        if a is None:
            sig = val["sig"]
            _check_sigma(sig, mids)
            a = sig @ np.swapaxes(sig, -1, -2)
        if mode == "standard":
            y = alpha * delta - bmid
        elif mode == "alt":
            y = delta - alpha * bmid
        else:
            y = alpha * delta
        w = y if identity else np.linalg.solve(a, y[..., None])[..., 0]
        costs = 0.5 * h * np.sum(y * w, axis=-1)

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
            sym -= alpha * np.einsum("kij,ki->kj", jac_b, w)
        if a_c is None:
            # d a^{-1} = -a^{-1} (d a) a^{-1} contributes -(h/4) w^T da/dq_j w,
            # and w^T (da/dq_j) w = 2 (sigma^T w) . (dsigma/dq_j^T w)
            sw = np.einsum("kir,ki->kr", sig, w)
            dsw = np.einsum("kirj,ki->krj", val["dsig"], w)
            sym -= np.einsum("kr,krj->kj", sw, dsw)
        sym *= 0.5 * h

        # antisymmetric part: dependence through the forward difference
        skew = w if mode == "alt" else alpha * w
        return costs, -skew + sym, skew + sym

    return lambda pts: run_trapped(1, lambda _: kernel(pts))


def segment_costs(p: ProblemDefinition, f: DiscretePath,
                  mode: str = "standard") -> np.ndarray:
    """Per-segment action contributions, shape (N,)."""
    return action_kernel(p, f.T, f.N, mode)(f.points)[0]


def segment_costs_grad(p: ProblemDefinition, f: DiscretePath,
                       mode: str = "standard"):
    """Per-segment costs plus their endpoint gradients: action_kernel's
    (costs, g_left, g_right) of the path f."""
    return action_kernel(p, f.T, f.N, mode)(f.points)


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
    endpoint gradients, from one action_kernel built for the solve, go to
    body(pts, costs, g_left, g_right), which returns the objective and its
    gradient over the free nodes.  Returns the final (N+1, d) path and
    scipy's result (fun and jac there, nit, success).
    """
    from scipy.optimize import minimize   # importing scipy.optimize is slow
    init = np.asarray(init, dtype=float)
    free = slice(1, -1 if pin_end else None)
    shape = init[free].shape

    def unpack(x):
        pts = init.copy()
        pts[free] = x.reshape(shape)
        return pts

    kernel = action_kernel(p, T, init.shape[0] - 1, mode)

    def objective(x):
        pts = unpack(x)
        value, grad = body(pts, *kernel(pts))
        return value, grad.ravel()

    res = minimize(objective, init[free].ravel(), jac=True,
                   method="L-BFGS-B", options=options)
    return unpack(res.x), res


def path_action(p: ProblemDefinition, f: DiscretePath) -> float:
    """Rate functional of a path: half the minimal control energy."""
    return float(np.sum(segment_costs(p, f, "standard")))


def control_cost(u: ControlSignal) -> float:
    """Half the trapezoidal energy of the control signal."""
    sq = np.sum(u.values**2, axis=1)
    return float(0.5 * np.trapezoid(sq, dx=u.T / u.N))


def controlled_skeleton(p: ProblemDefinition, u: ControlSignal, q0,
                        ) -> DiscretePath:
    """Integrate the controlled limit flow q' = (b + sigma u)/alpha with a
    classical fourth-order one-step method; u is interpolated linearly.
    The stages read sde.frozen_fields under one run_trapped."""
    q0 = p.point(q0, "q0")
    if u.r != p.r:
        raise ConfigError(f"control has r = {u.r}, problem needs {p.r}")
    N = u.N
    h = u.T / N
    out = np.empty((N + 1, p.d))
    out[0] = q0
    frozen = frozen_fields(p)

    def rhs(q, uval):
        _, alpha, drift = frozen(q, uval)
        return drift / alpha

    vals = u.values

    def advance(n):
        qn, u0, u1 = out[n], vals[n], vals[n + 1]
        um = 0.5 * (u0 + u1)
        k1 = rhs(qn, u0)
        k2 = rhs(qn + 0.5 * h * k1, um)
        k3 = rhs(qn + 0.5 * h * k2, um)
        k4 = rhs(qn + h * k3, u1)
        out[n + 1] = qn + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    run_trapped(N, advance)
    if not np.all(np.isfinite(out)):
        raise NumericalError("skeleton flow diverged")
    return DiscretePath(T=u.T, points=out)

