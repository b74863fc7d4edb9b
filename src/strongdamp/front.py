"""Reaction-front machinery: metric distance fields, front fields and their
interfaces, path-optimized front values, and a Monte Carlo upper bound.

The propagation metric weights Euclidean length by friction and by the
inverse diffusion tensor: an edge of displacement dq costs
alpha(mid) * sqrt(dq . a(mid)^{-1} dq), the length element of the
drift-free action 1/2 int alpha^2 f'^T a^{-1} f' that the path-optimized
front values minimize.  Distances from the seed set G0 = {g > 0} are
computed by scipy's multi-source Dijkstra on the grid graph (2 neighbors
in d=1, 8 in d=2).  The 8-neighbor graph metric overestimates Euclidean
distance by at most ~8.24% in the worst direction and is exact along axes
and diagonals; front-speed fits therefore use the maximum contour radius
by default, where the stencil is exact.

For constant reaction rate c the front field is R = c t - rho^2 / (2 t).
For general rates R is estimated by path optimization through the shared
free-end driver action.minimize_path, with one objective for both front
values: the partial sums P_n of reaction gain minus transport cost over a
path's first n segments give the path value P_N and the non-positive
prefix value min_n P_n, the terminal pulled into G0 by a quadratic penalty.

The Monte Carlo upper bound is eps log of the Feynman-Kac mean
E g(q_eps(t)) exp(eps^{-1} int_0^t c), a log-sum-exp over the log
weights from ldpcheck.path_values.  The weight is a rare event wherever
few paths reach G0, not only where R < 0: far from G0 it reads -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.special import logsumexp

from .action import DiscretePath, minimize_path, node_gradient, \
    segment_costs
from .contour import contour_polylines
from .errors import ConfigError, NumericalError
from .expr import grad_field
from .fields import ProblemDefinition, ProblemError
from .ldpcheck import path_values
from .sde import SimParams, default_step, snap_step

PENALTY_DEFAULT = 1e3
# L-BFGS-B options of the front path solves
LBFGS_FRONT = {"maxiter": 2000, "ftol": 1e-12, "gtol": 1e-8}


@dataclass
class GridField:
    """Scalar field sampled on a uniform grid (d = 1 or 2).

    values has shape (n1,) or (n1, n2); node (i, j) sits at
    origin + (i, j) * spacing.  kind tags the content for sidecar files.
    """

    origin: np.ndarray
    spacing: float
    values: np.ndarray
    kind: str

    @property
    def d(self) -> int:
        return self.values.ndim

    def axes(self):
        return tuple(self.origin[k] + self.spacing * np.arange(n)
                     for k, n in enumerate(self.values.shape))

    def node_coords(self) -> np.ndarray:
        axes = self.axes()
        if self.d == 1:
            return axes[0][:, None]
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.stack([X, Y], axis=-1)


@dataclass
class FrontContour:
    level: float
    points: np.ndarray        # (m, d) zero-crossing points
    polylines: Optional[list] = None   # d=2: list of (k, 2) chains


def riemannian_distance(p: ProblemDefinition, spacing: float) -> GridField:
    """Distance from G0 = {g > 0} in the friction-weighted metric, on a grid
    covering the declared box.

    Unreached nodes keep +inf.  Raises when no grid node lies inside G0.
    """
    p.require("g")
    if p.d not in (1, 2):
        raise ConfigError("grid distance supports d = 1 or 2 only")
    if spacing <= 0:
        raise ConfigError("grid spacing must be positive")
    shape = tuple(int(math.floor((hi - lo) / spacing + 1e-9)) + 1
                  for lo, hi in p.box)

    field = GridField(origin=p.box[:, 0].copy(), spacing=spacing,
                      values=np.full(shape, np.inf), kind="rho")
    coords = field.node_coords()
    seeds = p.eval_g(coords) > 0
    if not np.any(seeds):
        raise ProblemError("no grid node lies inside G0 = {g > 0}")

    h = spacing
    constant = p.sigma_const is not None and p.alpha_const is not None

    def edge_weights(c0, c1, dq):
        # length element alpha * sqrt(dq^T a^-1 dq), the square root of the
        # drift-free action's integrand alpha^2 dq^T a^-1 dq: half the
        # squared distance over t bounds the transport action from below
        # with equality on geodesics
        if constant:
            # one edge's weight serves the whole stencil direction
            c0, c1 = c0[(0,) * p.d][None], c1[(0,) * p.d][None]
        mid = 0.5 * (c0 + c1)
        flat = mid.reshape(-1, p.d)
        al = p.eval_alpha(flat)
        a = p.eval_a(flat)
        w = np.linalg.solve(a, np.broadcast_to(dq, flat.shape)[..., None])
        quad = np.einsum("ki,ki->k", np.broadcast_to(dq, flat.shape),
                         w[..., 0])
        return (al * np.sqrt(quad)).reshape(mid.shape[:-1])

    # each edge joins the nodes at index slices (s0, s1) of the grid
    lo, hi, every = slice(None, -1), slice(1, None), slice(None)
    if p.d == 1:
        stencil = [((lo,), (hi,), [h])]
    else:
        stencil = [((lo, every), (hi, every), [h, 0.0]),
                   ((every, lo), (every, hi), [0.0, h]),
                   ((lo, lo), (hi, hi), [h, h]),
                   ((lo, hi), (hi, lo), [h, -h])]
    # row k of the graph lists node k's edges in stencil order; a missing
    # edge at the grid border is an infinite-weight loop, which never relaxes
    node = np.arange(field.values.size, dtype=np.int32).reshape(shape)
    nbr = np.repeat(node[..., None], len(stencil), axis=-1)
    wts = np.full(nbr.shape, np.inf)
    for k, (s0, s1, dq) in enumerate(stencil):
        nbr[s0 + (k,)] = node[s1]
        wts[s0 + (k,)] = edge_weights(coords[s0], coords[s1], np.array(dq))
    graph = csr_matrix((wts.ravel(), nbr.ravel(),
                        np.arange(0, wts.size + 1, len(stencil))),
                       shape=(node.size, node.size))
    field.values = dijkstra(graph, directed=False,
                            indices=np.flatnonzero(seeds),
                            min_only=True).reshape(shape)
    return field


def front_field_constant(rho: GridField, c: float, t: float) -> GridField:
    """Front field c*t - rho^2/(2t) for a constant reaction rate."""
    if c <= 0 or t <= 0:
        raise ConfigError("front field needs c > 0 and t > 0")
    if rho.kind != "rho":
        raise ConfigError("expected a distance field (kind='rho')")
    with np.errstate(invalid="ignore"):
        vals = c * t - rho.values**2 / (2.0 * t)
    return GridField(origin=rho.origin, spacing=rho.spacing, values=vals,
                     kind="R")


def extract_front(field: GridField, level: float = 0.0) -> FrontContour:
    """Zero crossings of a grid field by linear interpolation."""
    vals = np.clip(field.values, -1e30, 1e30)
    if not (np.any(vals > level) and np.any(vals < level)):
        raise NumericalError("field does not change sign; no front to extract")
    axes = field.axes()
    if field.d == 1:
        xs = axes[0]
        pts = []
        v = vals - level
        for i in range(len(xs) - 1):
            if v[i] == 0.0:
                pts.append(xs[i])
            elif v[i] * v[i + 1] < 0:
                t = v[i] / (v[i] - v[i + 1])
                pts.append(xs[i] + t * (xs[i + 1] - xs[i]))
        if v[-1] == 0.0:
            pts.append(xs[-1])
        return FrontContour(level=level, points=np.asarray(pts)[:, None])
    polys = contour_polylines(vals, axes[0], axes[1], level)
    if not polys:
        raise NumericalError("no front found at the requested level")
    return FrontContour(level=level, points=np.concatenate(polys, axis=0),
                        polylines=polys)


@dataclass
class FrontSpeed:
    speed: float
    times: np.ndarray
    radii: np.ndarray
    stat: str


def fit_front_speed(contours, center, stat: str = "max") -> FrontSpeed:
    """Through-origin fit of contour radius against time.

    contours: iterable of (t, FrontContour).  stat picks the radius
    statistic per contour: "max" reads the direction where the grid metric
    is exact; "mean" averages over directions and inherits the 8-neighbor
    overestimate as a low bias (documented, not default).
    """
    if stat not in ("max", "mean"):
        raise ConfigError("stat must be 'max' or 'mean'")
    center = np.asarray(center, dtype=float)
    ts, rs = [], []
    for t, fc in contours:
        r = np.linalg.norm(fc.points - center, axis=1)
        ts.append(float(t))
        rs.append(float(np.max(r) if stat == "max" else np.mean(r)))
    ts = np.asarray(ts)
    rs = np.asarray(rs)
    if ts.size < 1:
        raise ConfigError("need at least one contour")
    speed = float(np.dot(ts, rs) / np.dot(ts, ts))
    return FrontSpeed(speed=speed, times=ts, radii=rs, stat=stat)


# ---------------------------------------------------------------------------
# path-based front values


def g0_samples(p: ProblemDefinition, per_dim: int = 512) -> np.ndarray:
    """Regular-grid samples of G0 = {g > 0} inside the box."""
    p.require("g")
    axes = [np.linspace(p.box[k, 0], p.box[k, 1], per_dim)
            for k in range(p.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = p.eval_g(pts) > 0
    if not np.any(keep):
        raise ProblemError("G0 = {g > 0} has no samples inside the box")
    return pts[keep]


def _nearest(samples: np.ndarray, x: np.ndarray):
    d2 = np.sum((samples - x) ** 2, axis=1)
    k = int(np.argmin(d2))
    return samples[k], float(d2[k])


@dataclass
class PathFrontResult:
    value: float
    path: DiscretePath
    terminal_distance: float   # distance from the path end to G0 samples
    converged: bool
    iterations: int


def _front_value(p: ProblemDefinition, q, t: float, N: int,
                 penalty: float, restarts: int, seed: int,
                 samples: Optional[np.ndarray], prefix: bool,
                 ) -> PathFrontResult:
    """Best of several free-end driftfree solves of the front objective.

    Along a path from q the partial sums P_0 = 0, P_n = sum_{k<n} [h (c_k
    + c_{k+1}) / 2 - cost_k] add reaction gain minus transport cost over
    the first n segments.  The value is P_n at n = N, or at n = argmin P
    (smallest index on ties) when prefix.  Each solve minimizes -P_n plus
    penalty * dist^2 from the last node to the nearest G0 sample.  The
    first start is the straight line to the G0 sample nearest q, the
    others seeded perturbations of it; candidates are ranked by value
    minus the terminal penalty.
    """
    p.require("c")
    q = p.point(q, "front point q")
    if t <= 0 or N < 2:
        raise ConfigError("need t > 0 and N >= 2")
    g0 = g0_samples(p) if samples is None else samples
    h = t / N

    def partial_sums(pts, costs):
        cvals = p.eval_c(pts, u=0.0)
        P = np.concatenate([[0.0], np.cumsum(
            0.5 * h * (cvals[:-1] + cvals[1:]) - costs)])
        return P, int(np.argmin(P)) if prefix else N

    def objective(pts, costs, g_left, g_right):
        P, n = partial_sums(pts, costs)
        grad = np.zeros((N, p.d))
        if n > 0:
            # P_n is a free-end problem on the first n segments: its
            # trapezoid gain weighs nodes 1..n-1 by h and node n by h/2
            w = np.full((n, 1), h)
            w[-1] = 0.5 * h
            grad[:n] = node_gradient(g_left[:n], g_right[:n], pin_end=False)
            grad[:n] -= w * grad_field(p.c, pts[1:n + 1], p.d, u=0.0)
        target, d2 = _nearest(g0, pts[-1])
        grad[-1] += 2.0 * penalty * (pts[-1] - target)
        return -P[n] + penalty * d2, grad

    rng = np.random.default_rng(seed)
    target0, _ = _nearest(g0, q)
    scale = 0.05 * (1.0 + np.linalg.norm(target0 - q))
    s = np.linspace(0.0, 1.0, N + 1)[:, None]
    line = (1.0 - s) * q + s * target0
    line[0] = q
    best = None
    for trial in range(max(restarts, 1)):
        pts0 = line.copy()
        if trial:
            pts0[1:] += scale * rng.standard_normal(pts0[1:].shape)
        pts, res = minimize_path(p, t, pts0, objective, "driftfree",
                                 pin_end=False, options=LBFGS_FRONT)
        path = DiscretePath(T=t, points=pts)
        P, n = partial_sums(pts, segment_costs(p, path, "driftfree"))
        _, d2 = _nearest(g0, pts[-1])
        cand = PathFrontResult(value=float(P[n]), path=path,
                               terminal_distance=math.sqrt(d2),
                               converged=bool(res.success),
                               iterations=int(res.nit))
        if best is None or cand.value - penalty * d2 > best[1]:
            best = (cand, cand.value - penalty * d2)
    return best[0]


def front_field_path(p: ProblemDefinition, q, t: float, N: int = 64,
                     penalty: float = PENALTY_DEFAULT, restarts: int = 3,
                     seed: int = 0, samples: Optional[np.ndarray] = None,
                     ) -> PathFrontResult:
    """Reaction gain minus transport cost, maximized over paths from q: the
    last partial sum P_N of the front objective (see _front_value).

    The terminal point is pulled into G0 by penalty * dist^2 to the nearest
    G0 sample; the reported value excludes the penalty term.
    """
    return _front_value(p, q, t, N, penalty, restarts, seed, samples,
                        prefix=False)


def front_field_prefix(p: ProblemDefinition, q, t: float, N: int = 64,
                       penalty: float = PENALTY_DEFAULT, restarts: int = 8,
                       seed: int = 0, samples: Optional[np.ndarray] = None,
                       ) -> PathFrontResult:
    """Worst partial sum min_n P_n along the best path: non-positive by
    construction, with the terminal penalized into G0 as in
    front_field_path.

    The prefix minimum is nonsmooth, so the optimizer follows the gradient
    of the active prefix over several seeded restarts and keeps the best.
    """
    return _front_value(p, q, t, N, penalty, restarts, seed, samples,
                        prefix=True)


# ---------------------------------------------------------------------------
# Monte Carlo upper-bound check


def feynman_kac_bound(p: ProblemDefinition, q, t: float, eps: float,
                      M: int, seed: int) -> float:
    """eps log of the Monte Carlo mean of
    g(q_eps(t)) * exp(eps^{-1} int_0^t c(q_eps, 0)) over M paths started
    at rest from q.

    Each sample is a log weight (paths ending where g = 0 give -inf):
    ldpcheck.path_values returns all M, and one log-sum-exp reduces them,
    so growth or decay never overflows; no path reaching G0 gives -inf.
    """
    p.require("g", "c")
    sp = SimParams(eps=eps, T=t, h=snap_step(t, default_step(p, eps)))

    def log_weight(tr, noise):
        integral = np.trapezoid(p.eval_c(tr.q, u=0.0), dx=sp.h, axis=-1)
        gvals = p.eval_g(tr.q[:, -1, :])
        with np.errstate(divide="ignore"):
            return np.where(gvals > 0, np.log(np.maximum(gvals, 1e-300)),
                            -np.inf) + integral / eps

    logw = path_values(p, sp, q, np.zeros(p.d), M, seed, 0, log_weight)
    return eps * float(logsumexp(logw) - math.log(M))
