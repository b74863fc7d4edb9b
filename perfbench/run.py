"""strongdamp benchmark: one workload, one fresh process, one closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  A
single client issues `strongdamp.cli.main([...])` calls one after
another, in-process, on JSON configs generated from the seed
(workloads.py).  Passes over the workload's operations, all on the same
inputs, repeat for about S seconds (at least two passes).  The
repeats check artifact determinism (artifacts.hash_tree, manifest
excluded) and, when traced, that every count repeats exactly.

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end").
The CPUs this was tuned on run, for tens of seconds to minutes at a time,
at full speed or up to ~1.7x slower, which no statistic over one run can
remove.  So each CLI call is bracketed by calibrate(), a fixed loop whose
full-speed duration is CAL_REF_S, and its wall and CPU seconds are
divided by the slowdown that calibration shows.  An operation's figure
is the median of those full-speed seconds over passes, and a pass figure
is the sum over operations.  The raw seconds and slowdowns are kept in
run.json.  Setup time is calibrated the same way.  --trace 1 runs each pass
untraced and then traced and reports the per-layer metrics (tracing.py)
plus the tracing overhead.

Every operation's artifacts are checked against its oracle
(workloads.py); an operation that raises, exits nonzero or fails its
check counts as failed.  Scratch output goes to ./.perfbench/<workload>.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

# One BLAS thread unless the caller chose otherwise: the calls are small,
# and a second BLAS thread only waits on the slower of two shared CPUs.
# Parallelism is set explicitly through the CLI's --threads instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
# held out for claim checks: tune on other seeds, confirm a gain here
CLAIM_SEED = 1009

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import jsonschema, strongdamp, strongdamp.cli; "
    "[strongdamp.load_preset(n) for n in sys.argv[2:]]"
)

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


# calibrate() at full speed on the machine the benchmark was tuned on
# (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6); only ratios to it matter
CAL_REF_S = 0.0049
_CAL_ARRAY = np.arange(256.0)


def calibrate() -> float:
    """Duration of a fixed mix of interpreter and small-array numpy work,
    the two kinds of work strongdamp's loops are made of; the minimum of
    three tries ignores a single preemption."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(40000):
            s += i * i
        for _ in range(1000):
            np.exp(-_CAL_ARRAY) * 0.5 + _CAL_ARRAY[::-1]
        best = min(best, time.perf_counter() - t0)
    return best


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "claim_seed": CLAIM_SEED, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def measure_setup(src: str, presets) -> tuple:
    """Wall time of a fresh interpreter importing the package and loading
    the workload's presets, and the slowdown calibrated around it."""
    before = calibrate()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, src, *presets],
                   check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - t0
    return wall, math.sqrt(before * calibrate()) / CAL_REF_S


class Runner:
    """Runs operations through the CLI and checks what they wrote."""

    def __init__(self, work_dir: str, tracer=None):
        from strongdamp import cli
        from strongdamp.artifacts import hash_tree
        self.cli = cli
        self.hash_tree = hash_tree
        self.work_dir = work_dir
        self.tracer = tracer
        self.calls = 0
        self.failed = 0
        self.failures = []
        self.hashes = {}
        self.log = []

    def run(self, op, traced: bool):
        """Execute one operation; returns (wall s, cpu s, slowdown, trace
        id), the slowdown from calibrations just before and after."""
        out = os.path.join(self.work_dir, "out", op.slot)
        cfg_path = os.path.join(self.work_dir, "cfg", f"{op.slot}.json")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh, sort_keys=True)
        argv = [op.command, "--config", cfg_path, "--out", out,
                "--threads", str(op.threads)]
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        trace_id = self.calls
        self.calls += 1
        before = calibrate()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if traced:
                    with self.tracer.root(f"cli.{op.command}", trace_id):
                        code = self.cli.main(argv)
                else:
                    code = self.cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        slow = math.sqrt(before * calibrate()) / CAL_REF_S

        problems = []
        if error is not None:
            problems.append(f"raised: {error.strip().splitlines()[-1]}")
        elif code != 0:
            problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
        else:
            try:
                problems += op.check(out)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems.append(f"check could not read artifacts: {exc!r}")
            digest = self.hash_tree(out)
            first = self.hashes.setdefault(op.slot, digest)
            if digest != first:
                problems.append("artifacts differ from an earlier run of "
                                "the same inputs")
        if problems:
            self.failed += 1
            self.failures.append({"slot": op.slot, "problems": problems})
        self.log.append({"slot": op.slot, "traced": traced,
                         "argv": argv, "exit_code": code,
                         "stdout": stdout.getvalue(),
                         "stderr": stderr.getvalue(), "error": error,
                         "wall_s": wall, "cpu_s": cpu, "slowdown": slow,
                         "problems": problems})
        return wall, cpu, slow, trace_id


def full_speed(samples) -> float:
    """Median over passes of [(seconds, slowdown)], each at full speed."""
    return statistics.median(t / slow for t, slow in samples)


def end_to_end(passes, ops, setup) -> dict:
    wall = {op.slot: full_speed([(p[op.slot][0], p[op.slot][2])
                                 for p in passes]) for op in ops}
    cpu = sum(full_speed([(p[op.slot][1], p[op.slot][2]) for p in passes])
              for op in ops)
    work = sum(op.work for op in ops)
    return {
        "wall_s": {"value": sum(wall.values()), "unit": "s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "setup_s": {"value": full_speed(setup), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "unit": "MB"},
        "work_per_s": {
            "value": work / sum(wall[op.slot] for op in ops if op.work),
            "unit": "1/s"},
    }


def per_layer(tracer, traced_passes, overhead) -> tuple:
    """Median over traced passes for timings; counts from the first
    traced pass, which must equal the second exactly."""
    import tracing
    sp = tracer.spans()
    per_pass = [tracing.layer_metrics(sp, tracer.names, ids)
                for ids in traced_passes]
    mismatched = [n for n in per_pass[0] if tracing.is_exact(n)
                  and per_pass[0][n] != per_pass[1][n]]
    metrics = {}
    for name in per_pass[0]:
        if tracing.is_exact(name):
            value = per_pass[0][name]
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = {"value": value, "unit": tracing.unit_of(name)}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics, mismatched


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "strongdamp", "__init__.py")):
        print("perfbench: no strongdamp sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".perfbench", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    presets = workloads.PRESETS[args.workload]
    setup = [measure_setup(src, presets) for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, src)
    import strongdamp  # noqa: F401  (same import the setup probe times)
    build = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    runner = Runner(work_dir, tracer)
    passes, traced_passes, traced_walls = [], [], []
    ops = build(args.seed)
    t_start = time.perf_counter()
    shortest = math.inf
    k = 0
    # start another pass only if it should end within half a pass of the
    # deadline, so a run lasts about --seconds however long a pass is
    while k < MIN_PASSES or \
            time.perf_counter() - t_start + shortest / 2 < args.seconds:
        t_pass = time.perf_counter()
        timings = {}
        for op in ops:
            wall, cpu, slow, _ = runner.run(op, traced=False)
            timings[op.slot] = (wall, cpu, slow)
        passes.append(timings)
        if tracer is not None:
            ids, walls = [], {}
            tracer.install()
            try:
                for op in ops:
                    wall, _, slow, tid = runner.run(op, traced=True)
                    walls[op.slot] = (wall, slow)
                    ids.append(tid)
            finally:
                tracer.uninstall()
            traced_passes.append(ids)
            traced_walls.append(walls)
        shortest = min(shortest, time.perf_counter() - t_pass)
        k += 1

    if tracer is not None:
        plain = sum(full_speed([(p[op.slot][0], p[op.slot][2])
                                for p in passes])
                    for op in ops)
        traced = sum(full_speed([w[op.slot] for w in traced_walls])
                     for op in ops)
        metrics, mismatched = per_layer(tracer, traced_passes,
                                        traced / plain - 1.0)
        if mismatched:
            runner.failures.append({"counts_differ": mismatched})
        tracer.save(os.path.join(work_dir, "spans.npz"))
    else:
        metrics = end_to_end(passes, ops, setup)
        mismatched = []

    env = environment(args)
    env["setup_s"] = setup
    env["passes"] = k
    env["work_unit"] = workloads.WORK_UNITS[args.workload]
    # equal at equal seeds: compare it across runs for determinism
    env["artifact_fingerprint"] = hashlib.sha256(json.dumps(
        runner.hashes, sort_keys=True).encode()).hexdigest()
    with open(os.path.join(work_dir, "run.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "failures": runner.failures,
                   "calls": runner.log}, fh, indent=1, default=str)
    shutil.rmtree(os.path.join(work_dir, "out"), ignore_errors=True)

    for f in runner.failures:
        print("perfbench failure:", json.dumps(f, default=str))
    print("perfbench env:", json.dumps(env, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and not mismatched,
        "attempted": runner.calls,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
