"""Acceptance suite: ten end-to-end checks at fixed seeds and sizes.

Each criterion function is self-contained (own seeds, own presets) and
returns a CriterionResult; the CLI `all` subcommand and the test suite
both run exactly these.  `scale` shrinks Monte Carlo sizes for smoke
runs; 1.0 is the contractual size.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .action import ControlSignal, controlled_skeleton, control_cost, \
    path_action
from .artifacts import hash_tree, write_json
from .exit import exit_location_histogram, exit_scaling
from .fields import load_preset
from .front import extract_front, fit_front_speed, front_field_constant, \
    front_field_path, front_field_prefix, g0_samples, riemannian_distance
from .ldpcheck import H_EXPONENT_RANGE, H_R2_MIN, LAPLACE_GAP_MAX, \
    controlled_convergence, h_eps_scaling, laplace_check
from .quasipotential import check_action_equivalence, gradient_case_oracle, \
    quasipotential


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    runtime_s: float
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.index:2d} ({self.name}): {status} "
                f"{self.detail} [{self.runtime_s:.1f}s]")


def _sized(M: int, scale: float, floor: int = 2) -> int:
    return max(int(round(M * scale)), floor)


def criterion_1(scale: float = 1.0) -> CriterionResult:
    """Minimized action against the closed form 2*(U(q) - U(O)) on the
    gradient-structure presets, 3% relative."""
    t0 = time.time()
    rows = []
    worst = 0.0
    for name, points in (("p1", [[0.5], [1.0], [1.8]]),
                         ("p2", [[0.5], [1.0], [1.8]]),
                         ("p3", [[0.5, 0.0], [0.0, 1.0], [1.3, 1.3]])):
        p = load_preset(name)
        for q in points:
            oracle = gradient_case_oracle(p, q)
            got = quasipotential(p, q).value
            rel = abs(got - oracle) / oracle
            worst = max(worst, rel)
            rows.append({"preset": name, "q": q, "oracle": oracle,
                         "value": got, "rel_err": rel})
    passed = worst <= 0.03
    return CriterionResult(1, "gradient-case quasipotential oracle", passed,
                           f"worst rel err {worst:.2e} (tol 3e-2)",
                           time.time() - t0, {"points": rows})


def criterion_2(scale: float = 1.0) -> CriterionResult:
    """The two quadratic forms of the action minimize to the same
    quasipotential, 2% relative."""
    t0 = time.time()
    rows = []
    worst = 0.0
    for name in ("p1", "p2"):
        p = load_preset(name)
        standard, alt, gap = check_action_equivalence(p, [1.0])
        worst = max(worst, gap)
        rows.append({"preset": name, "standard": standard.value,
                     "alt": alt.value, "gap": gap})
    passed = worst <= 0.02
    return CriterionResult(2, "action-form equivalence", passed,
                           f"worst rel gap {worst:.2e} (tol 2e-2)",
                           time.time() - t0, {"cases": rows})


def criterion_3(scale: float = 1.0) -> CriterionResult:
    """Action of the controlled skeleton equals the control half-energy,
    1e-3 absolute, over 20 seeded random smooth controls."""
    t0 = time.time()
    p = load_preset("p2")
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        T = float(rng.uniform(0.5, 2.0))
        n = 2048
        tt = np.linspace(0.0, T, n + 1)
        vals = np.zeros(n + 1)
        for _ in range(3):
            a = rng.uniform(-0.4, 0.4)
            w = rng.uniform(0.5, 3.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            vals += a * np.sin(w * tt + phi)
        u = ControlSignal(T=T, values=vals)
        skel = controlled_skeleton(p, u, p.O)
        gap = abs(path_action(p, skel) - control_cost(u))
        worst = max(worst, gap)
    passed = worst <= 1e-3
    return CriterionResult(3, "control energy identity", passed,
                           f"worst |I - E/2| {worst:.2e} (tol 1e-3)",
                           time.time() - t0, {"worst_abs_gap": worst})


def criterion_4(scale: float = 1.0) -> CriterionResult:
    """Fitted exponent of E sup|H| over the eps ladder in [0.3, 0.7] with
    r^2 >= 0.9.  The horizon sits inside the friction relaxation time of
    every rung, where the square-root rate of the sup bound is tight;
    long horizons show the sharper pointwise rate instead."""
    t0 = time.time()
    fit = h_eps_scaling(load_preset("p2"), (0.2, 0.1, 0.05),
                        M=_sized(1000, scale), T=2e-4, seed=7)
    lo, hi = H_EXPONENT_RANGE
    passed = lo <= fit.fitted_exponent <= hi and fit.r_squared >= H_R2_MIN
    return CriterionResult(
        4, "convolution sup scaling", passed,
        f"exponent {fit.fitted_exponent:.3f} in [{lo},{hi}], "
        f"r2 {fit.r_squared:.4f} >= {H_R2_MIN}",
        time.time() - t0,
        {"exponent": fit.fitted_exponent, "r_squared": fit.r_squared,
         "metrics": fit.metric_values})


def criterion_5(scale: float = 1.0) -> CriterionResult:
    """E sup|q - skeleton| strictly decreasing along the eps ladder for a
    fixed sinusoidal control."""
    t0 = time.time()
    T = 3.0
    tt = np.linspace(0.0, T, 257)
    u = ControlSignal(T=T, values=np.sin(tt))
    fit = controlled_convergence(load_preset("p2"), u, (0.2, 0.1, 0.05),
                                 M=_sized(500, scale), seed=5)
    passed = bool(np.all(np.diff(fit.metric_values) < 0))
    vals = ", ".join(f"{v:.4f}" for v in fit.metric_values)
    return CriterionResult(5, "controlled convergence", passed,
                           f"sup deviations [{vals}] strictly decreasing",
                           time.time() - t0,
                           {"metrics": fit.metric_values,
                            "exponent": fit.fitted_exponent})


def criterion_6(scale: float = 1.0) -> CriterionResult:
    """Exit-time asymptotics on the double-sided well: eps*log mean exit
    time increasing in eps with the eps->0 extrapolation within 15% of the
    barrier value 1; exit-location mode of the tilted variant at the low
    barrier with at least 70% of the mass."""
    t0 = time.time()
    p = load_preset("p1")
    sc = exit_scaling(p, (0.25, 0.18, 0.12), M=_sized(400, scale),
                      seed=2024, V0_hint=1.0)
    elm = np.array([s.eps_log_mean for s in sc.stats])
    clean = all(s.timeouts == 0 for s in sc.stats)
    monotone = bool(np.all(np.diff(elm) < 0))     # increasing in eps
    within = abs(sc.limit - 1.0) <= 0.15
    tilted = load_preset("p1_tilted")
    tsc = exit_scaling(tilted, (0.12,), M=max(_sized(120, scale), 60),
                       seed=77)
    hist = exit_location_histogram(tsc.stats[0], bins=16)
    frac = float(hist.counts.max()) / float(hist.counts.sum())
    bin_w = float(hist.edges[1] - hist.edges[0])
    at_qstar = abs(float(hist.mode_point[0]) - (-1.0)) <= max(bin_w, 0.1)
    passed = clean and monotone and within and frac >= 0.7 and at_qstar
    return CriterionResult(
        6, "exit-time asymptotics", passed,
        f"eps*log mean {np.round(elm, 4).tolist()} increasing in eps, "
        f"limit {sc.limit:.4f} vs 1 (tol 15%), tilted mode "
        f"{float(hist.mode_point[0]):.3f} mass {frac:.3f} >= 0.7",
        time.time() - t0,
        {"eps_log_mean": elm, "limit": sc.limit, "tilted_mass": frac,
         "tilted_mode_point": hist.mode_point})


def criterion_7(scale: float = 1.0) -> CriterionResult:
    """Front of the constant-rate planar problem expands at speed
    sqrt(2*c*a)/alpha = sqrt(2) within [0.95, 1.09] (8-neighbor stencil
    bias documented on the mean statistic; max is exact on the axes)."""
    t0 = time.time()
    p = load_preset("front2d")
    rho = riemannian_distance(p, spacing=0.02)
    contours = []
    for t in (0.5, 1.0, 1.5):
        field_t = front_field_constant(rho, 1.0, t)
        contours.append((t, extract_front(field_t)))
    fitted = fit_front_speed(contours, center=p.O, stat="max")
    ratio = fitted.speed / math.sqrt(2.0)
    passed = 0.95 <= ratio <= 1.09
    return CriterionResult(
        7, "constant-rate front speed", passed,
        f"speed {fitted.speed:.4f}, ratio to sqrt(2) {ratio:.4f} "
        f"in [0.95, 1.09]",
        time.time() - t0,
        {"speed": fitted.speed, "ratio": ratio, "radii": fitted.radii})


def criterion_8(scale: float = 1.0) -> CriterionResult:
    """Prefix-form front value: non-positive everywhere and equal to
    min(R, 0) within 5% of max(|R|, 0.1) on a constant-rate instance."""
    t0 = time.time()
    p = load_preset("kpp1d")
    g0 = g0_samples(p)
    worst_pos = -math.inf
    worst_gap = 0.0
    rows = []
    for t in (0.4, 0.8, 1.2, 1.6, 2.0):
        for q in np.linspace(-3.5, 3.5, 10):
            R = front_field_path(p, [q], t, samples=g0, seed=1).value
            Rt = front_field_prefix(p, [q], t, samples=g0, seed=1).value
            worst_pos = max(worst_pos, Rt)
            gap = abs(Rt - min(R, 0.0)) / max(abs(R), 0.1)
            worst_gap = max(worst_gap, gap)
            rows.append({"t": t, "q": float(q), "R": R, "R_prefix": Rt})
    passed = worst_pos <= 1e-9 and worst_gap <= 0.05
    return CriterionResult(
        8, "prefix front consistency", passed,
        f"max value {worst_pos:.2e} <= 0, worst rel gap to min(R,0) "
        f"{worst_gap:.2e} (tol 5e-2)",
        time.time() - t0,
        {"worst_positive": worst_pos, "worst_gap": worst_gap,
         "samples": rows})


def criterion_9(scale: float = 1.0) -> CriterionResult:
    """Monte Carlo Laplace functional extrapolated in eps against the
    free-endpoint variational value, 25% relative."""
    t0 = time.time()
    rep = laplace_check(load_preset("p1"), "10*(q1-0.8)^2",
                        (0.25, 1.0 / 6.0, 0.125), M=_sized(6000, scale),
                        T=1.0, seed=3)
    passed = rep.rel_gap <= LAPLACE_GAP_MAX
    return CriterionResult(
        9, "Laplace variational match", passed,
        f"extrapolated {rep.extrapolated:.4f} vs variational "
        f"{rep.variational_value:.4f}, rel gap {rep.rel_gap:.3f} "
        f"(tol {LAPLACE_GAP_MAX})",
        time.time() - t0,
        {"extrapolated": rep.extrapolated,
         "variational": rep.variational_value,
         "rel_gap": rep.rel_gap, "per_rung": rep.lhs_values,
         "flagged": rep.flagged})


_DET_CONFIGS = {
    "simulate": {
        "problem": "p1", "seed": 9,
        "simulate": {"eps": 0.25, "T": 0.5, "n_paths": 2,
                     "with_convolution": True},
    },
    "quasipotential": {
        "problem": "p1", "seed": 9,
        "quasipotential": {"q_end": [1.0], "N": 32,
                           "T_ladder": [1.0, 2.0, 4.0, 8.0],
                           "refine": False},
    },
    "exit": {
        "problem": "p1", "seed": 9,
        "exit": {"eps_ladder": [0.35, 0.3], "M": 6},
    },
    "front": {
        "problem": "kpp1d", "seed": 9,
        "front": {"spacing": 0.05, "c": 1.0, "t_values": [1.0]},
    },
    "verify": {
        "problem": "p2", "seed": 9,
        "verify": {
            "h_scaling": {"eps_ladder": [0.2, 0.1, 0.05], "M": 40,
                          "T": 2e-4},
            "laplace": {"terminal_cost": "0.5",
                        "eps_ladder": [0.25, 0.125], "M": 40, "T": 0.5},
        },
    },
}


def criterion_10(scale: float = 1.0, workdir: str = None) -> CriterionResult:
    """Re-running every artifact-producing subcommand with the same seed
    reproduces identical bytes (manifests carry the only timestamps and
    are excluded).  Runs a reduced-size configuration of each subcommand
    twice through the installed CLI."""
    t0 = time.time()
    owned = workdir is None
    workdir = tempfile.mkdtemp(prefix="strongdamp-det-") if owned else workdir
    os.makedirs(workdir, exist_ok=True)
    # the subprocesses import this copy of the package even when it is on
    # the caller's sys.path only
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (pkg_root, os.environ.get("PYTHONPATH")))))
    mismatched = []
    empty = []
    for cmd, cfg in _DET_CONFIGS.items():
        cfg_path = os.path.join(workdir, f"{cmd}.json")
        write_json(cfg_path, cfg)
        digests = []
        for attempt in ("a", "b"):
            out = os.path.join(workdir, f"{cmd}-{attempt}")
            proc = subprocess.run(
                [sys.executable, "-m", "strongdamp.cli", cmd,
                 "--config", cfg_path, "--out", out],
                capture_output=True, text=True, env=env)
            if proc.returncode != 0:
                return CriterionResult(
                    10, "artifact determinism", False,
                    f"subcommand {cmd} exited {proc.returncode}: "
                    f"{proc.stderr.strip()[:200]}",
                    time.time() - t0)
            digests.append(hash_tree(out))
        if not digests[0]:
            empty.append(cmd)
        if digests[0] != digests[1]:
            mismatched.append(cmd)
    passed = not mismatched and not empty
    detail = "all artifact bytes identical across re-runs"
    if mismatched:
        detail = f"byte mismatch in: {', '.join(mismatched)}"
    elif empty:
        detail = f"no artifacts produced by: {', '.join(empty)}"
    return CriterionResult(10, "artifact determinism", passed, detail,
                           time.time() - t0,
                           {"commands": sorted(_DET_CONFIGS)})


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_criterion(index: int, scale: float = 1.0,
                  workdir: str = None) -> CriterionResult:
    """Run criterion `index` (1 to 10); criterion 10 writes its determinism
    runs under workdir (a fresh temporary directory when None)."""
    fn = CRITERIA[index - 1]
    return fn(scale, workdir=workdir) if fn is criterion_10 else fn(scale)


def run_all(scale: float = 1.0, workdir: str = None):
    """Run all ten criteria in order, workdir as in run_criterion."""
    return [run_criterion(i, scale, workdir)
            for i in range(1, len(CRITERIA) + 1)]
