"""Workload definitions: seed -> list of CLI operations with their oracles.

A workload is a fixed list of operations ("slots") whose JSON configs
are built from the workload seed, so the program sees only generated
configs and the same seed always yields the same inputs.  Each operation
carries

* the request-defined amount of work it represents (the unit behind
  `work_per_s`), computed from the config alone so that a later change
  that does the same job with fewer internal steps reads as faster;
* a check that re-derives the acceptance oracle from the artifacts the
  CLI wrote, at the acceptance tolerance or tighter.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# exit_ladder: eps*log E[tau] must sit within EXIT_Z standard errors
# (run and reference combined) of the value measured when the benchmark
# was introduced (make_exit_reference.py).  4.5 sigma keeps the expected
# number of false alarms over ~2000 checked rungs near 0.01.
EXIT_Z = 4.5
# exit points are linear interpolations inside one step; the step moves
# q by far less than this at every rung below
EXIT_BOUNDARY_TOL = 1e-2

# A rung's loop runs until its longest-lived path exits, and that maximum
# swings by ~13% from seed to seed.  Many paths per rung make the per-row
# work (noise draws, the step on each live row) a large share of the cost,
# and several independent seeds per preset average out the rest, so a
# pass costs nearly the same at every seed while each call stays short.
EXIT_SLOTS = (
    # (slot, preset, eps ladder, M, histogram bins)
    ("exit.p1.a", "p1", (0.55, 0.5, 0.45), 500, None),
    ("exit.p1.b", "p1", (0.55, 0.5, 0.45), 500, None),
    ("exit.p1.c", "p1", (0.55, 0.5, 0.45), 500, None),
    ("exit.p2.a", "p2", (0.8, 0.7), 500, None),
    ("exit.p2.b", "p2", (0.8, 0.7), 500, None),
    ("exit.p2.c", "p2", (0.8, 0.7), 500, None),
    ("exit.p3.a", "p3", (0.5, 0.45, 0.4), 400, 16),
    ("exit.p3.b", "p3", (0.5, 0.45, 0.4), 400, 16),
)

# acceptance tolerances (criteria 1, 2, 4, 5, 7, 8, 9)
QP_REL_TOL = 0.03
EQUIV_GAP_TOL = 0.02
H_EXPONENT = (0.3, 0.7)
H_R2_MIN = 0.9
LAPLACE_GAP_TOL = 0.25
SPEED_RATIO = (0.95, 1.09)
PREFIX_GAP_TOL = 0.05

QP_SHORT_LADDER = [2.0, 4.0, 8.0, 16.0, 32.0]

WORK_UNITS = {
    "exit_ladder": "exited samples",
    "path_ensemble": "inertial row-steps at h = min(0.2 eps^2/alpha_max, "
                     "T/64) for verify and 0.2 eps^2/alpha_max for simulate",
    "min_action": "quasipotential values (endpoints, equivalence forms, "
                  "boundary samples)",
    "front_grid": "distance-field nodes of the front2d grid call",
}


@dataclass
class Op:
    slot: str
    command: str
    config: dict
    threads: int
    work: float
    check: Callable[[str], list]


def sub_seed(seed: int, slot: int) -> int:
    """CLI seed of one slot (fits the schema's integer)."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, slot])
    return int(ss.generate_state(1)[0] & 0x7FFFFFFF)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, 0xC0FFEE])


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# exit_ladder

def _load_exit_reference() -> dict:
    return _read_json(os.path.join(HERE, "exit_reference.json"))


def _exit_check(preset: str, ladder, M: int, bins, ref: dict):
    def check(out: str) -> list:
        bad = []
        header, rows = _read_csv(os.path.join(out, "rungs.csv"))
        col = {h: i for i, h in enumerate(header)}
        if len(rows) != len(ladder):
            return [f"{preset}: {len(rows)} rungs, expected {len(ladder)}"]
        for row in rows:
            eps = float(row[col["eps"]])
            n = int(row[col["n"]])
            if int(row[col["timeouts"]]) != 0 or n != M:
                bad.append(f"{preset} eps={eps}: {row[col['timeouts']]} "
                           f"timeouts, {n}/{M} exits")
                continue
            mean = float(row[col["mean_tau"]])
            se = eps * float(row[col["ci"]]) / 1.96 / mean
            elm = float(row[col["eps_log_mean"]])
            ref_elm, ref_se = ref[preset][repr(eps)]
            tol = EXIT_Z * math.hypot(se, ref_se)
            if abs(elm - ref_elm) > tol:
                bad.append(f"{preset} eps={eps}: eps log E tau {elm:.4f} vs "
                           f"reference {ref_elm:.4f} (tol {tol:.4f})")
        header, rows = _read_csv(os.path.join(out, "exit_points.csv"))
        pts = np.array([[float(v) for v in r[2:]] for r in rows])
        if pts.shape[0] != M * len(ladder):
            bad.append(f"{preset}: {pts.shape[0]} exit points")
        elif pts.size:
            off = np.abs(np.linalg.norm(pts, axis=1) - 1.0).max()
            if off > EXIT_BOUNDARY_TOL:
                bad.append(f"{preset}: exit point {off:.3g} off the unit "
                           "sphere boundary of G")
        summary = _read_json(os.path.join(out, "summary.json"))
        if summary["lower_bound"]:
            bad.append(f"{preset}: a rung is only a lower bound")
        if bins:
            _, rows = _read_csv(os.path.join(out, "histogram.csv"))
            total = sum(int(float(r[2])) for r in rows)
            if len(rows) != bins or total != M:
                bad.append(f"{preset}: histogram has {len(rows)} bins and "
                           f"{total} counts")
        return bad
    return check


def exit_ladder(seed: int) -> list:
    ref = _load_exit_reference()
    ops = []
    for j, (slot, preset, ladder, M, bins) in enumerate(EXIT_SLOTS):
        blk = {"eps_ladder": list(ladder), "M": M}
        if bins:
            blk["histogram_bins"] = bins
        ops.append(Op(
            slot=slot, command="exit",
            config={"problem": preset, "seed": sub_seed(seed, j),
                    "exit": blk},
            threads=1, work=float(M * len(ladder)),
            check=_exit_check(preset, ladder, M, bins, ref)))
    return ops


# ---------------------------------------------------------------------------
# path_ensemble

H_SCALING = {"eps_ladder": [0.2, 0.1, 0.05], "M": 1000, "T": 2e-4}
CONTROLLED = {"eps_ladder": [0.2, 0.1, 0.05], "M": 100,
              "control": {"kind": "sin", "T": 1.5, "N": 256}}
# Criterion 9 passes at M=6000 on its one fixed seed, but the benchmark
# draws a new seed per run.  At eps = 0.125 only ~0.3% of the weights
# exp(-cost/eps) carry the mean, so at M=6000 the rung is flagged for a
# wide CI and about 1 seed in 100-300 misses enough of them to push the
# gap past 0.25 (one such seed gave 0.271).  Resampling a pool of 400000
# paths per rung puts the 99.9% quantile of the gap at 0.29 for M=6000,
# 0.14 for M=24000 and 0.11 for M=36000, so M=36000 keeps the acceptance
# tolerance with room for a heavier tail than resampling shows.
LAPLACE = {"terminal_cost": "10*(q1-0.8)^2",
           "eps_ladder": [0.25, 1.0 / 6.0, 0.125], "M": 36000, "T": 1.0}
SIMULATE = {"eps": 0.1, "T": 1.0, "n_paths": 12, "with_convolution": True,
            "gzip": True}
ALPHA_MAX = {"p1": 1.0, "p2": 3.0}


def _verify_row_steps(blk: dict, T: float, alpha_max: float) -> float:
    total = 0.0
    for eps in blk["eps_ladder"]:
        h = min(0.2 * eps**2 / alpha_max, T / 64)
        total += blk["M"] * max(math.ceil(T / h), 64)
    return total


def _verify_check(keys):
    def check(out: str) -> list:
        rep = _read_json(os.path.join(out, "verify.json"))
        bad = []
        if "h_scaling" in keys:
            h = rep["h_scaling"]
            if not (H_EXPONENT[0] <= h["exponent"] <= H_EXPONENT[1]
                    and h["r_squared"] >= H_R2_MIN):
                bad.append(f"h_scaling exponent {h['exponent']:.3f} "
                           f"r2 {h['r_squared']:.4f}")
        if "controlled" in keys:
            m = rep["controlled"]["metrics"]
            if not all(b < a for a, b in zip(m, m[1:])):
                bad.append(f"controlled metrics not decreasing: {m}")
        if "laplace" in keys:
            gap = rep["laplace"]["rel_gap"]
            if not gap <= LAPLACE_GAP_TOL:
                bad.append(f"laplace gap {gap:.3f}")
        return bad
    return check


def _simulate_check(n_paths: int, T: float, q0: float):
    def check(out: str) -> list:
        bad = []
        for i in range(n_paths):
            with gzip.open(os.path.join(out, f"traj_{i:04d}.csv.gz"),
                           "rt", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != ["t", "q1", "p1", "H1"]:
                bad.append(f"path {i}: header {rows[0]}")
                continue
            data = np.array(rows[1:], dtype=float)
            t = data[:, 0]
            if not (np.all(np.isfinite(data)) and t[0] == 0.0
                    and abs(t[-1] - T) <= 1e-9 and np.all(np.diff(t) > 0)):
                bad.append(f"path {i}: non-finite values or a time grid "
                           f"other than [0, {T}]")
            elif data[0, 1] != q0 or data[0, 3] != 0.0:
                bad.append(f"path {i}: starts at q={data[0, 1]}, "
                           f"H={data[0, 3]}")
        return bad
    return check


def path_ensemble(seed: int) -> list:
    rng = _rng(seed)
    threads = min(2, len(os.sched_getaffinity(0)))
    q0 = float(np.round(rng.uniform(-0.5, 0.5), 6))
    sim = dict(SIMULATE, q0=[q0])
    steps = max(math.ceil(sim["T"] / (0.2 * sim["eps"]**2 / ALPHA_MAX["p2"])
                          - 1e-9), 1)
    return [
        Op("verify.p2", "verify",
           {"problem": "p2", "seed": sub_seed(seed, 0),
            "verify": {"h_scaling": H_SCALING, "controlled": CONTROLLED}},
           threads,
           _verify_row_steps(H_SCALING, H_SCALING["T"], ALPHA_MAX["p2"])
           + _verify_row_steps(CONTROLLED, CONTROLLED["control"]["T"],
                               ALPHA_MAX["p2"]),
           _verify_check(("h_scaling", "controlled"))),
        Op("verify.p1", "verify",
           {"problem": "p1", "seed": sub_seed(seed, 1),
            "verify": {"laplace": LAPLACE}},
           threads, _verify_row_steps(LAPLACE, LAPLACE["T"], ALPHA_MAX["p1"]),
           _verify_check(("laplace",))),
        Op("simulate.p2", "simulate",
           {"problem": "p2", "seed": sub_seed(seed, 2), "simulate": sim},
           1, float(sim["n_paths"] * steps),
           _simulate_check(sim["n_paths"], sim["T"], q0)),
    ]


# ---------------------------------------------------------------------------
# min_action

P3_BOUNDARY_SAMPLES = 3


def _endpoint(rng) -> float:
    return float(np.round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.8), 6))


def _qp_check(q: float, equivalence: bool):
    def check(out: str) -> list:
        info = _read_json(os.path.join(out, "quasipotential.json"))
        bad = []
        # gradient case: V(q) = 2 (U(q) - U(0)) = q^2 on p2
        if _rel(info["value"], q * q) > QP_REL_TOL:
            bad.append(f"p2 V({q}) = {info['value']:.6f} vs {q * q:.6f}")
        if equivalence and not info["equivalence"]["rel_gap"] <= \
                EQUIV_GAP_TOL:
            bad.append(f"equivalence gap {info['equivalence']['rel_gap']}")
        return bad
    return check


def _boundary_check(preset: str):
    def check(out: str) -> list:
        _, rows = _read_csv(os.path.join(out, "boundary.csv"))
        info = _read_json(os.path.join(out, "quasipotential.json"))
        values = np.array([float(r[-1]) for r in rows])
        bad = []
        if preset == "p3":
            # V = 2 U = |q|^2 = 1 on the whole unit circle
            worst = float(np.max(np.abs(values - 1.0)))
            if len(values) != P3_BOUNDARY_SAMPLES or worst > QP_REL_TOL:
                bad.append(f"p3 boundary: {len(values)} samples, worst "
                           f"|V - 1| = {worst:.4f}")
        else:
            # tilted well: V0 = 2 (U(-1) - U(-0.2)) = 0.64 at q* = -1
            if _rel(info["V0"], 0.64) > QP_REL_TOL \
                    or abs(info["q_star"][0] + 1.0) > 1e-9:
                bad.append(f"p1_tilted V0 {info['V0']} at {info['q_star']}")
        return bad
    return check


def min_action(seed: int) -> list:
    rng = _rng(seed)
    qa, qb = _endpoint(rng), _endpoint(rng)
    return [
        Op("qp.p2", "quasipotential",
           {"problem": "p2", "seed": sub_seed(seed, 0),
            "quasipotential": {"q_end": [qa], "N": 24}},
           1, 1.0, _qp_check(qa, False)),
        Op("qp.p2.equivalence", "quasipotential",
           {"problem": "p2", "seed": sub_seed(seed, 1),
            "quasipotential": {"q_end": [qb], "N": 24,
                               "T_ladder": QP_SHORT_LADDER,
                               "equivalence": True}},
           1, 3.0, _qp_check(qb, True)),
        Op("boundary.p3", "quasipotential",
           {"problem": "p3", "seed": sub_seed(seed, 2),
            "quasipotential": {"boundary": True,
                               "boundary_samples": P3_BOUNDARY_SAMPLES,
                               "grid_n": 61, "N": 16,
                               "T_ladder": QP_SHORT_LADDER}},
           1, float(P3_BOUNDARY_SAMPLES), _boundary_check("p3")),
        Op("boundary.p1_tilted", "quasipotential",
           {"problem": "p1_tilted", "seed": sub_seed(seed, 3),
            "quasipotential": {"boundary": True, "N": 16}},
           1, 2.0, _boundary_check("p1_tilted")),
    ]


# ---------------------------------------------------------------------------
# front_grid

FRONT_SPACING = 0.02


def _front2d_check(out: str) -> list:
    info = _read_json(os.path.join(out, "front.json"))
    ratio = info["speed"]["value"] / math.sqrt(2.0)
    if not SPEED_RATIO[0] <= ratio <= SPEED_RATIO[1]:
        return [f"front2d speed ratio {ratio:.4f}"]
    return []


def _kpp_check(out: str) -> list:
    _, rows = _read_csv(os.path.join(out, "path_values.csv"))
    by_point = {}
    for t, q, mode, value in rows:
        by_point.setdefault((t, q), {})[mode] = float(value)
    bad = []
    for (t, q), v in by_point.items():
        R, Rp = v["path"], v["prefix"]
        gap = abs(Rp - min(R, 0.0)) / max(abs(R), 0.1)
        if Rp > 1e-9 or gap > PREFIX_GAP_TOL:
            bad.append(f"kpp1d t={t} q={q}: R={R} prefix={Rp}")
    return bad


def _grid_nodes(spacing: float, box) -> float:
    n = 1
    for lo, hi in box:
        n *= int(round((hi - lo) / spacing)) + 1
    return float(n)


def front_grid(seed: int) -> list:
    rng = _rng(seed)
    t1 = rng.uniform(0.4, 0.6)
    t_values = [float(np.round(t, 6)) for t in
                (t1, t1 + rng.uniform(0.4, 0.6), t1 + rng.uniform(0.9, 1.1))]
    # a point's cost depends on how far it lies from G0, so one point is
    # drawn per distance band to keep the pass cost alike across seeds
    points = []
    for lo, hi in ((0.0, 1.2), (1.2, 2.4), (2.4, 3.5)):
        t = float(np.round(rng.uniform(0.6, 1.8), 6))
        q = float(np.round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 6))
        points += [{"t": t, "q": [q], "mode": "path"},
                   {"t": t, "q": [q], "mode": "prefix"}]
    return [
        Op("front.front2d", "front",
           {"problem": "front2d", "seed": sub_seed(seed, 0),
            "front": {"spacing": FRONT_SPACING, "c": 1.0,
                      "t_values": t_values}},
           1, _grid_nodes(FRONT_SPACING, ((-2.5, 2.5), (-2.5, 2.5))),
           _front2d_check),
        Op("front.kpp1d", "front",
           {"problem": "kpp1d", "seed": sub_seed(seed, 1),
            "front": {"spacing": 0.05, "path_points": points}},
           1, 0.0, _kpp_check),
    ]


WORKLOADS = {
    "exit_ladder": exit_ladder,
    "path_ensemble": path_ensemble,
    "min_action": min_action,
    "front_grid": front_grid,
}

PRESETS = {
    "exit_ladder": ("p1", "p2", "p3"),
    "path_ensemble": ("p1", "p2"),
    "min_action": ("p2", "p3", "p1_tilted"),
    "front_grid": ("front2d", "kpp1d"),
}
