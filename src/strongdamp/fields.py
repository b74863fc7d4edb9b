"""Problem definitions: coefficient fields, domains, and hypothesis checks.

A problem bundles the drift b, noise matrix sigma, friction alpha with its
declared lower bound alpha0, the optional potential U and rotational part l,
the optional reaction rate c(q, u), initial datum g, domain indicator G
(the open set {phi < 0}), the equilibrium O, the noise exponent beta and a
sampling box.  All coefficient fields are expression trees over q1..qd
(c may additionally reference u).

validate_hypotheses samples the box with a scrambled Sobol design and
checks the standing assumptions: b vanishing at O (up to REST_POINT_TOL),
friction bounded below by alpha0, sigma invertible with bounded inverse,
b Lipschitz on the box, and, when the structure is declared, the gradient
decomposition alpha*b = -grad U + l with grad U orthogonal to l, plus
inward-pointing drift on the boundary of G.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from numbers import Real
from typing import Optional

import numpy as np

from .artifacts import read_json
from .errors import ConfigError, NumericalError
from .expr import ScalarExpr, evaluate, evaluate_all, grad_field, q_field

_ALLOWED_KEYS = {"d", "r", "b", "sigma", "alpha", "alpha0", "U", "l", "c",
                 "g", "G", "O", "beta", "box"}
RAY_XTOL = 1e-14      # absolute root tolerance along a boundary ray
# |b(O)| at or below this makes O a rest point: rounding of a declared root
REST_POINT_TOL = 1e-12


class ProblemError(ConfigError):
    pass


@dataclass(frozen=True)
class ProblemDefinition:
    d: int
    r: int
    b: tuple
    sigma: tuple
    alpha: ScalarExpr
    alpha0: float
    O: np.ndarray
    box: np.ndarray
    beta: float = 0.0
    U: Optional[ScalarExpr] = None
    l: Optional[tuple] = None
    c: Optional[ScalarExpr] = None
    g: Optional[ScalarExpr] = None
    G: Optional[ScalarExpr] = None
    name: str = ""

    @cached_property
    def _sigma_flat(self) -> tuple:
        return tuple(e for row in self.sigma for e in row)

    # sigma (d, r) and alpha frozen once when they do not depend on q
    @cached_property
    def sigma_const(self) -> Optional[np.ndarray]:
        return None if any(e.max_q_index for e in self._sigma_flat) \
            else self.eval_sigma(self.O[None, :])[0]

    @cached_property
    def alpha_const(self) -> Optional[float]:
        return None if self.alpha.max_q_index \
            else float(self.eval_alpha(self.O[None, :])[0])

    @cached_property
    def b_at_O(self) -> float:
        """|b(O)|, zero up to rounding when O is a rest point."""
        return float(np.linalg.norm(self.eval_b(self.O[None, :])[0]))

    @property
    def O_is_rest_point(self) -> bool:
        """Whether b vanishes at O, so that waiting there costs no action."""
        return self.b_at_O <= REST_POINT_TOL

    # -- field evaluation (expr.evaluate: compiled, checked on failure) -------

    def eval_alpha(self, Q) -> np.ndarray:
        return evaluate(self.alpha, Q)

    def eval_b(self, Q) -> np.ndarray:
        return evaluate_all(self.b, Q)

    def eval_sigma(self, Q) -> np.ndarray:
        out = evaluate_all(self._sigma_flat, Q)
        return out.reshape(out.shape[:-1] + (self.d, self.r))

    def eval_a(self, Q) -> np.ndarray:
        """Diffusion matrix a = sigma sigma^T, shape (..., d, d)."""
        s = self.eval_sigma(Q)
        return s @ np.swapaxes(s, -1, -2)

    def require(self, *keys) -> None:
        """ProblemError unless the problem declares each optional field."""
        for key in keys:
            if getattr(self, key) is None:
                raise ProblemError(f"problem declares no field {key}")

    def eval_c(self, Q, u) -> np.ndarray:
        self.require("c")
        return evaluate(self.c, Q, u=u)

    def eval_g(self, Q) -> np.ndarray:
        self.require("g")
        return evaluate(self.g, Q)

    def eval_phi(self, Q) -> np.ndarray:
        self.require("G")
        return evaluate(self.G, Q)

    # -- sampled coefficient ranges -------------------------------------------

    @cached_property
    def alpha_max(self) -> float:
        """Largest friction over a Sobol sample of the box and O; a
        constant friction is its own maximum and is not sampled."""
        if self.alpha_const is not None:
            return self.alpha_const
        pts = box_samples(self.box, 4096, seed=0)
        pts = np.vstack([pts, self.O[None, :]])
        return float(np.max(self.eval_alpha(pts)))

    def point(self, q, name: str) -> np.ndarray:
        """q as a float array of shape (d,); ConfigError naming it if not."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.d,):
            raise ConfigError(f"{name} must have shape ({self.d},)")
        return q

    def in_box(self, q) -> bool:
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= self.box[:, 0]) and np.all(q <= self.box[:, 1]))


def _numeric(spec, key, scalar=False, default=None):
    """spec[key], or default when absent, as a float if scalar and a float
    array if not: ProblemError unless it is a number or nested lists of
    numbers."""
    arr = np.asarray(spec.get(key, default), dtype=object)
    if (scalar and arr.ndim) or not all(
            isinstance(x, Real) and not isinstance(x, bool) for x in arr.flat):
        raise ProblemError(f"{key} must be a number" if scalar
                           else f"{key} must be an array of numbers")
    return float(arr) if scalar else arr.astype(float)


def load_problem(spec) -> ProblemDefinition:
    """Build a ProblemDefinition from a dict or a JSON file path."""
    if isinstance(spec, str):
        spec = read_json(spec, "problem")
    if not isinstance(spec, dict):
        raise ProblemError("problem definition must be a JSON object")
    unknown = set(spec) - _ALLOWED_KEYS - {"name"}
    if unknown:
        raise ProblemError(f"unknown problem keys: {sorted(unknown)}")
    missing = {"d", "b", "sigma", "alpha", "alpha0", "O", "box"} - set(spec)
    if missing:
        raise ProblemError(f"missing problem keys: {sorted(missing)}")

    d = spec["d"]
    if type(d) is not int or d < 1:
        raise ProblemError("d must be a positive integer")

    def q_expr(raw, what, allow_u=False):
        return q_field(raw, d, f"field {what}", allow_u)

    def vector(key):
        raw = spec[key]
        if not isinstance(raw, list) or len(raw) != d:
            raise ProblemError(
                f"{key} must be a list of {d} expression strings")
        return tuple(q_expr(s, f"{key}[{i}]") for i, s in enumerate(raw))

    sigma_raw = spec["sigma"]
    if (not isinstance(sigma_raw, list) or len(sigma_raw) != d
            or not all(isinstance(row, list) for row in sigma_raw)):
        raise ProblemError(f"sigma must be a {d}-row matrix of expressions")
    r = spec.get("r", len(sigma_raw[0]))
    if type(r) is not int or r < d:
        raise ProblemError(
            "r, the number of sigma columns, must be an integer >= d")
    if any(len(row) != r for row in sigma_raw):
        raise ProblemError("sigma rows must share a common length r")

    alpha0 = _numeric(spec, "alpha0", scalar=True)
    if not 0 < alpha0 < np.inf:
        raise ProblemError("alpha0 must be positive and finite")
    beta = _numeric(spec, "beta", scalar=True, default=0.0)
    if not (0.0 <= beta < 0.5):
        raise ProblemError("beta must lie in [0, 1/2)")

    box = _numeric(spec, "box")
    if box.shape != (d, 2) or not (np.all(box[:, 0] < box[:, 1])
                                   and np.isfinite(box).all()):
        raise ProblemError("box must be a finite (d, 2) array with lo < hi")
    O = _numeric(spec, "O")
    if O.shape != (d,):
        raise ProblemError(f"O must have {d} coordinates")
    if not (np.all(O >= box[:, 0]) and np.all(O <= box[:, 1])):
        raise ProblemError("O must lie inside the box")

    return ProblemDefinition(
        d=d, r=r,
        b=vector("b"),
        sigma=tuple(tuple(q_expr(s, f"sigma[{i}][{j}]")
                          for j, s in enumerate(row))
                    for i, row in enumerate(sigma_raw)),
        alpha=q_expr(spec["alpha"], "alpha"),
        alpha0=alpha0,
        O=O, box=box, beta=beta,
        l=None if spec.get("l") is None else vector("l"),
        name=spec.get("name", ""),
        **{key: q_expr(spec[key], key, allow_u=key == "c")
           for key in ("U", "c", "g", "G") if spec.get(key) is not None})


def preset_names() -> list:
    """Names of the bundled problem presets, sorted."""
    files = resources.files("strongdamp").joinpath("presets").iterdir()
    return sorted(f.name[:-5] for f in files if f.name.endswith(".json"))


def load_preset(name: str) -> ProblemDefinition:
    """Load one of the bundled problem presets by name (e.g. 'p1', 'p3')."""
    ref = resources.files("strongdamp").joinpath(f"presets/{name.lower()}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ProblemError(f"unknown preset {name!r}") from None
    spec = json.loads(text)
    spec.setdefault("name", name.lower())
    return load_problem(spec)


# ---------------------------------------------------------------------------
# sampling helpers

def box_samples(box: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n Sobol-like stratified points in the box, deterministic in seed."""
    from scipy.stats import qmc    # importing scipy.stats is slow
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        eng = qmc.Sobol(d=d, scramble=True, seed=seed)
        unit = eng.random(n)
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


def boundary_points_by_ray(p: ProblemDefinition, n_rays: int,
                           seed: int = 0) -> np.ndarray:
    """Sample the zero level set of phi along rays from O.

    The crossing on each ray is the root of phi between O and the box
    face, found by scipy's brentq to RAY_XTOL.  Requires phi(O) < 0.
    Rays that never leave G inside the box are dropped; raises when no
    boundary point is found.
    """
    from scipy.optimize import brentq   # importing scipy.optimize is slow
    phi_O = float(p.eval_phi(p.O[None, :])[0])
    if phi_O >= 0:
        raise ProblemError("O must lie inside G (phi(O) < 0)")
    d = p.d
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        th = np.linspace(0.0, 2.0 * np.pi, n_rays, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        rng = np.random.Generator(np.random.Philox(key=seed))
        dirs = rng.standard_normal((n_rays, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = []
    for u in dirs:
        # largest step to the box face along +u
        with np.errstate(divide="ignore"):
            t_hi = np.min(np.where(
                u > 0, (p.box[:, 1] - p.O) / np.where(u > 0, u, 1.0),
                np.where(u < 0, (p.box[:, 0] - p.O) / np.where(u < 0, u, 1.0),
                         np.inf)))
        if not np.isfinite(t_hi) or t_hi <= 0:
            continue
        f_hi = float(p.eval_phi((p.O + t_hi * u)[None, :])[0])
        if f_hi < 0:
            continue  # ray exits the box while still inside G
        t = brentq(lambda t: float(p.eval_phi((p.O + t * u)[None, :])[0]),
                   0.0, float(t_hi), xtol=RAY_XTOL)
        pts.append(p.O + t * u)
    if not pts:
        raise ProblemError("no boundary point of G found inside the box")
    return np.asarray(pts)


def inward_normals(p: ProblemDefinition, pts: np.ndarray) -> np.ndarray:
    """Unit inward normals on the boundary, -grad phi / |grad phi|."""
    gp = grad_field(p.G, pts, p.d)
    norms = np.linalg.norm(gp, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise NumericalError("vanishing grad phi on the boundary")
    return -gp / norms


# ---------------------------------------------------------------------------
# hypothesis validation

@dataclass
class ValidationReport:
    passed: bool
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "failures": list(self.failures),
                "metrics": dict(self.metrics)}


GRADIENT_STRUCTURE_TOL = 1e-8


def validate_hypotheses(p: ProblemDefinition, samples: int = 10_000,
                        seed: int = 0) -> ValidationReport:
    """Sample-based check of the standing assumptions on the box."""
    if samples < 100:
        raise ProblemError("validation needs at least 100 sample points")
    pts = box_samples(p.box, samples, seed=seed)
    pts = np.vstack([pts, p.O[None, :]])
    failures = []
    metrics = {"b_at_O": p.b_at_O}
    if not p.O_is_rest_point:
        failures.append(
            f"equilibrium O is not a rest point: |b(O)| = {p.b_at_O:.6g} "
            f"exceeds {REST_POINT_TOL:g}")

    alpha = p.eval_alpha(pts)
    metrics["alpha_min"] = float(np.min(alpha))
    metrics["alpha_max"] = float(np.max(alpha))
    if metrics["alpha_min"] < p.alpha0 - 1e-12:
        failures.append(
            f"friction drops to {metrics['alpha_min']:.6g} below the declared "
            f"lower bound alpha0 = {p.alpha0:.6g}")

    sig = p.eval_sigma(pts)
    sv = np.linalg.svd(sig, compute_uv=False)
    metrics["sigma_min_sv"] = float(np.min(sv))
    metrics["sigma_max_sv"] = float(np.max(sv))
    if metrics["sigma_min_sv"] <= 1e-8:
        failures.append(
            f"sigma is numerically singular on the box "
            f"(min singular value {metrics['sigma_min_sv']:.3g})")

    # empirical Lipschitz constant of b over sample pairs
    bv = p.eval_b(pts)
    half = pts.shape[0] // 2
    dq = pts[:half] - pts[half:2 * half]
    db = bv[:half] - bv[half:2 * half]
    dist = np.linalg.norm(dq, axis=1)
    keep = dist > 1e-9
    metrics["b_lipschitz"] = float(
        np.max(np.linalg.norm(db[keep], axis=1) / dist[keep]))

    # bounded derivative of sigma
    dsig = evaluate_all([e.derivative(j) for e in p._sigma_flat
                         for j in range(p.d)], pts)
    metrics["sigma_derivative_max"] = float(np.max(np.abs(dsig)))

    if p.U is not None:
        gu = grad_field(p.U, pts, p.d)
        lv = np.zeros_like(gu) if p.l is None else evaluate_all(p.l, pts)
        residual = p.eval_alpha(pts)[:, None] * bv + gu - lv
        metrics["gradient_residual_max"] = float(
            np.max(np.linalg.norm(residual, axis=1)))
        metrics["orthogonality_max"] = float(
            np.max(np.abs(np.sum(gu * lv, axis=1))))
        tol = GRADIENT_STRUCTURE_TOL * (
            1.0 + float(np.max(np.linalg.norm(gu, axis=1))))
        if metrics["gradient_residual_max"] > tol:
            failures.append(
                "alpha*b + grad U - l does not vanish "
                f"(max residual {metrics['gradient_residual_max']:.3g})")
        if metrics["orthogonality_max"] > tol:
            failures.append(
                "grad U is not orthogonal to l "
                f"(max inner product {metrics['orthogonality_max']:.3g})")

    if p.G is not None:
        phi_O = float(p.eval_phi(p.O[None, :])[0])
        metrics["phi_at_O"] = phi_O
        if phi_O >= 0:
            failures.append("equilibrium O lies outside G")
        else:
            bpts = boundary_points_by_ray(p, n_rays=max(16, 8 * p.d),
                                          seed=seed)
            nu = inward_normals(p, bpts)
            inward_drift = np.sum(p.eval_b(bpts) * nu, axis=1)
            metrics["boundary_inward_drift_min"] = float(np.min(inward_drift))
            if metrics["boundary_inward_drift_min"] <= 0:
                failures.append(
                    "drift is not inward-pointing everywhere on the boundary "
                    f"(min <b, nu> = {metrics['boundary_inward_drift_min']:.3g})")

    return ValidationReport(passed=not failures, failures=failures,
                            metrics=metrics)
