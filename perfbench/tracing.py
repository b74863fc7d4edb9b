"""Span tracing of strongdamp's public functions, installed from outside.

Modules import each other's functions by name (quasipotential.py,
front.py and ldpcheck.py each hold their own `segment_costs_grad`), so a
wrapper only takes effect if every module attribute that holds the
original is rebound; module-level dicts (the CLI's HANDLERS table) are
rebound the same way, and ProblemDefinition / NoisePath methods are
wrapped on the class.  Modules are looked up in sys.modules because the
package re-exports functions under the names of their modules
(`strongdamp.quasipotential` is the function).

Each span records name, parent, trace id (one per CLI call), start, end
and up to three work counts taken from the call's arguments or result.
Spans live in per-thread append-only arrays, so the thread pool of
`verify` needs no lock; a span opened on a pool thread has no parent.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import threading
import time
from array import array

import numpy as np

PKG = "strongdamp"


class _Buffer:
    __slots__ = ("name", "parent", "trace", "t0", "t1", "w0", "w1", "w2",
                 "stack")

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.w0 = array("d")
        self.w1 = array("d")
        self.w2 = array("d")
        self.stack = []

    def open(self, nid: int, trace: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.trace.append(trace)
        self.t1.append(0.0)
        self.w0.append(0.0)
        self.w1.append(0.0)
        self.w2.append(0.0)
        self.stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self.stack.pop()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._bufs = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []
        self.trace_id = -1

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._bufs.append(buf)
            self._local.buf = buf
        return buf

    @contextlib.contextmanager
    def root(self, name: str, trace_id: int):
        """The benchmark's own span around one CLI call."""
        self.trace_id = trace_id
        buf = self._buf()
        i = buf.open(self._nid(name), trace_id)
        try:
            yield
        finally:
            buf.close(i)

    def _wrap(self, fn, name: str, count):
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buf()
            i = buf.open(nid, tracer.trace_id)
            try:
                res = fn(*args, **kwargs)
            finally:
                buf.close(i)
            if count is not None:
                w = count(args, kwargs, res)
                buf.w0[i] = w[0]
                if len(w) > 1:
                    buf.w1[i] = w[1]
                if len(w) > 2:
                    buf.w2[i] = w[2]
            return res
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PKG or n.startswith(PKG + "."))]
        for modname, attr, name, count in FUNCTIONS:
            orig = getattr(sys.modules[f"{PKG}.{modname}"], attr)
            wrapped = self._wrap(orig, name, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((setattr, mod, key, orig))
                        setattr(mod, key, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._undo.append(
                                    (dict.__setitem__, val, k, orig))
                                val[k] = wrapped
        for modname, clsname, attr, name, count in METHODS:
            cls = getattr(sys.modules[f"{PKG}.{modname}"], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, count))
            else:
                new = self._wrap(raw, name, count)
            self._undo.append((setattr, cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            op, obj, key, orig = self._undo.pop()
            op(obj, key, orig)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """All spans as flat numpy arrays; parents index the flat arrays."""
        cols = {k: [] for k in ("name", "parent", "trace", "t0", "t1",
                                "w0", "w1", "w2")}
        offset = 0
        for buf in self._bufs:
            n = len(buf.name)
            for k in cols:
                arr = np.frombuffer(getattr(buf, k), dtype=(
                    np.int32 if k in ("name", "parent", "trace")
                    else np.float64))[:n].copy()
                if k == "parent":
                    arr = np.where(arr >= 0, arr + offset, -1)
                cols[k].append(arr)
            offset += n
        out = {k: (np.concatenate(v) if v else np.zeros(0))
               for k, v in cols.items()}
        dur = out["t1"] - out["t0"]
        child = np.zeros_like(dur)
        has = out["parent"] >= 0
        np.add.at(child, out["parent"][has].astype(np.int64), dur[has])
        out["dur"] = dur
        out["self"] = dur - child
        return out

    def save(self, path: str) -> None:
        sp = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **sp)


# ---------------------------------------------------------------------------
# what is wrapped, and the counts taken at each boundary

def _npoints(Q) -> int:
    shape = getattr(Q, "shape", None)
    return math.prod((np.shape(Q) if shape is None else shape)[:-1])


def _points(args, kwargs, res):
    # the point array is the second positional argument of eval_field,
    # grad_field and of every ProblemDefinition.eval_* method
    return (_npoints(args[1]),)


def _row_steps(args, kwargs, res):
    shape = res.q.shape
    return (math.prod(shape[:-2]) * (shape[-2] - 1),)


def _normals(args, kwargs, res):
    return (res.increments.size,)


def _file_bytes(args, kwargs, res):
    return (os.path.getsize(args[0]),)


def _grid_bytes(args, kwargs, res):
    path = args[0]
    stem = path[:-4] if path.endswith(".csv") else path
    return (os.path.getsize(path) + os.path.getsize(stem + ".meta.json"),)


def _manifest_bytes(args, kwargs, res):
    return (os.path.getsize(res),)


def _dump_bytes(args, kwargs, res):
    return (os.path.getsize(args[1]),)


def _exit_counts(args, kwargs, res):
    """(path steps, iterations, timeouts) from the returned taus: a rung's
    loop runs max ceil(tau/h) steps, each path ceil(tau/h)."""
    p = args[0]
    h = kwargs.get("h")
    step = sys.modules[f"{PKG}.exit"].default_step
    path_steps = iterations = timeouts = 0
    for s in res.stats:
        hs = step(p, s.eps) if h is None else h
        n = np.ceil(np.asarray(s.taus) / hs)
        path_steps += int(n.sum())
        iterations += int(n.max()) if n.size else 0
        timeouts += int(s.timeouts)
    return (path_steps, iterations, timeouts)


def _solve_counts(args, kwargs, res):
    return (res.iterations, 0 if res.converged else 1)


def _at_cap(args, kwargs, res):
    ladder = kwargs.get("T_ladder")
    top = (sys.modules[f"{PKG}.quasipotential"].DEFAULT_LADDER[1]
           if ladder is None else float(np.max(ladder)))
    return (1 if res.T_star >= top * (1 - 1e-12) else 0,)


def _nodes(args, kwargs, res):
    return (res.values.size,)


def _cells(args, kwargs, res):
    nx, ny = np.shape(args[0])
    return ((nx - 1) * (ny - 1),)


FUNCTIONS = (
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("cli", "cmd_quasipotential", "cli.cmd_quasipotential", None),
    ("cli", "cmd_exit", "cli.cmd_exit", None),
    ("cli", "cmd_front", "cli.cmd_front", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
    ("expr", "eval_field", "expr.eval_field", _points),
    ("expr", "grad_field", "expr.grad_field", _points),
    ("sde", "simulate_inertial", "sde.simulate_inertial", _row_steps),
    ("sde", "stochastic_convolution", "sde.stochastic_convolution", None),
    ("sde", "dump_trajectory", "sde.dump_trajectory", _dump_bytes),
    ("exit", "exit_scaling", "exit.exit_scaling", _exit_counts),
    ("action", "segment_costs_grad", "action.segment_costs_grad", None),
    ("action", "segment_costs", "action.segment_costs", None),
    ("action", "controlled_skeleton", "action.controlled_skeleton", None),
    ("quasipotential", "minimize_action_fixed_T",
     "quasipotential.minimize_action_fixed_T", _solve_counts),
    ("quasipotential", "quasipotential", "quasipotential.quasipotential",
     _at_cap),
    ("quasipotential", "quasipotential_boundary",
     "quasipotential.quasipotential_boundary", None),
    ("front", "riemannian_distance", "front.riemannian_distance", _nodes),
    ("front", "front_field_path", "front.front_field_path", _solve_counts),
    ("front", "front_field_prefix", "front.front_field_prefix",
     _solve_counts),
    ("front", "g0_samples", "front.g0_samples", None),
    ("front", "extract_front", "front.extract_front", None),
    ("contour", "contour_polylines", "contour.contour_polylines", _cells),
    ("ldpcheck", "h_eps_scaling", "ldpcheck.h_eps_scaling", None),
    ("ldpcheck", "controlled_convergence", "ldpcheck.controlled_convergence",
     None),
    ("ldpcheck", "laplace_check", "ldpcheck.laplace_check", None),
    ("ldpcheck", "minimize_terminal_plus_action",
     "ldpcheck.minimize_terminal_plus_action", None),
    ("artifacts", "write_csv", "artifacts.write_csv", _file_bytes),
    ("artifacts", "write_grid", "artifacts.write_grid", _grid_bytes),
    ("artifacts", "write_json", "artifacts.write_json", _file_bytes),
    ("artifacts", "write_manifest", "artifacts.write_manifest",
     _manifest_bytes),
)

METHODS = tuple(
    ("fields", "ProblemDefinition", f, f"fields.{f}", _points)
    for f in ("eval_phi", "eval_b", "eval_alpha", "eval_sigma", "eval_c")
) + (
    ("sde", "NoisePath", "generate_batch", "sde.NoisePath.generate_batch",
     _normals),
)

CLI_COMMANDS = ("simulate", "quasipotential", "exit", "front", "verify")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(sp: dict, names: list, traces) -> dict:
    """Per-layer metrics over the spans whose trace id is in `traces`."""
    ids = {n: i for i, n in enumerate(names)}
    mask = np.isin(sp["trace"], np.asarray(sorted(traces), dtype=np.int32))

    def sel(name):
        if name not in ids:
            return np.zeros(sp["name"].shape, dtype=bool)
        return mask & (sp["name"] == ids[name])

    def calls(name):
        return float(np.count_nonzero(sel(name)))

    def secs(name, col="dur"):
        return float(sp[col][sel(name)].sum())

    def work(name, col="w0"):
        return float(sp[col][sel(name)].sum())

    m = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = secs(f"cli.{cmd}")
    m["cli.load_config.s"] = secs("cli.load_config")
    ldp = sum(secs(f"ldpcheck.{f}") for f in (
        "h_eps_scaling", "controlled_convergence", "laplace_check"))
    m["cli.verify.overlap"] = _per(ldp, secs("cli.cmd_verify"))

    for f in ("eval_phi", "eval_b", "eval_alpha", "eval_sigma", "eval_c"):
        n = f"fields.{f}"
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.s"] = secs(n)
        m[f"{n}.ns_per_point"] = _per(secs(n), work(n), 1e9)
    for f in ("eval_field", "grad_field"):
        n = f"expr.{f}"
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.s"] = secs(n)
        m[f"{n}.ns_per_point"] = _per(secs(n), work(n), 1e9)

    n = "sde.simulate_inertial"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.s"] = secs(n)
    m[f"{n}.row_steps"] = work(n)
    m[f"{n}.ns_per_row_step"] = _per(secs(n), work(n), 1e9)
    n = "sde.NoisePath.generate_batch"
    m[f"{n}.s"] = secs(n)
    m[f"{n}.normals"] = work(n)
    m[f"{n}.ns_per_normal"] = _per(secs(n), work(n), 1e9)
    m["sde.stochastic_convolution.s"] = secs("sde.stochastic_convolution")
    m["sde.dump_trajectory.s"] = secs("sde.dump_trajectory")
    m["sde.dump_trajectory.bytes"] = work("sde.dump_trajectory")

    n = "exit.exit_scaling"
    iters = work(n, "w1")
    m["exit.exit_scaling.s"] = secs(n)
    m["exit.path_steps"] = work(n, "w0")
    m["exit.iterations"] = iters
    m["exit.rows_per_iteration"] = _per(work(n, "w0"), iters)
    m["exit.us_per_iteration"] = _per(secs(n), iters, 1e6)
    m["exit.timeouts"] = work(n, "w2")

    n = "action.segment_costs_grad"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.s"] = secs(n)
    m[f"{n}.us_per_call"] = _per(secs(n), calls(n), 1e6)
    m["action.segment_costs.s"] = secs("action.segment_costs")
    m["action.controlled_skeleton.s"] = secs("action.controlled_skeleton")

    n = "quasipotential.minimize_action_fixed_T"
    solves = calls(n)
    m[f"{n}.calls"] = solves
    m[f"{n}.self_s"] = secs(n, "self")
    m[f"{n}.iterations"] = work(n, "w0")
    m[f"{n}.nonconverged"] = work(n, "w1")
    in_solve = 0.0
    if n in ids and "action.segment_costs_grad" in ids:
        par = sp["parent"][sel("action.segment_costs_grad")]
        par = par[par >= 0]
        in_solve = float(np.count_nonzero(sp["name"][par] == ids[n]))
    m["quasipotential.evals_per_solve"] = _per(in_solve, solves)
    n = "quasipotential.quasipotential"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.s"] = secs(n)
    m["quasipotential.T_star_at_cap"] = work(n)
    m["quasipotential.quasipotential_boundary.s"] = secs(
        "quasipotential.quasipotential_boundary")

    n = "front.riemannian_distance"
    m[f"{n}.s"] = secs(n)
    m[f"{n}.nodes"] = work(n)
    m[f"{n}.ns_per_node"] = _per(secs(n), work(n), 1e9)
    for f in ("front_field_path", "front_field_prefix"):
        n = f"front.{f}"
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.s"] = secs(n)
        m[f"{n}.iterations"] = work(n, "w0")
        m[f"{n}.nonconverged"] = work(n, "w1")
    m["front.values_per_s"] = _per(
        calls("front.front_field_path") + calls("front.front_field_prefix"),
        secs("front.front_field_path") + secs("front.front_field_prefix"))
    m["front.g0_samples.calls"] = calls("front.g0_samples")
    m["front.g0_samples.s"] = secs("front.g0_samples")
    m["front.extract_front.s"] = secs("front.extract_front")

    n = "contour.contour_polylines"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.s"] = secs(n)
    m[f"{n}.ns_per_cell"] = _per(secs(n), work(n), 1e9)

    for f in ("h_eps_scaling", "controlled_convergence", "laplace_check",
              "minimize_terminal_plus_action"):
        m[f"ldpcheck.{f}.s"] = secs(f"ldpcheck.{f}")

    art = [ids[a] for a in ids if a.startswith("artifacts.")]
    par = sp["parent"]
    parent_name = np.where(par >= 0, sp["name"][np.maximum(par, 0)], -1)
    in_manifest = parent_name == ids.get("artifacts.write_manifest", -2)
    for f in ("write_csv", "write_grid", "write_json", "write_manifest"):
        n = f"artifacts.{f}"
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.s"] = secs(n)
        if f != "write_manifest":
            # manifests carry wall time, so their size is not exact
            m[f"{n}.bytes"] = float(sp["w0"][sel(n) & ~in_manifest].sum())
    # rate over outermost artifact writes (write_grid nests write_csv)
    top = mask & np.isin(sp["name"], art) & ~np.isin(parent_name, art)
    m["artifacts.mb_per_s"] = _per(float(sp["w0"][top].sum()),
                                   float(sp["dur"][top].sum()), 1e-6)
    return m


PER_LAYER_UNITS = {
    ".calls": "count", ".s": "s", ".self_s": "s", ".ns_per_point": "ns",
    ".row_steps": "count", ".ns_per_row_step": "ns", ".normals": "count",
    ".ns_per_normal": "ns", ".bytes": "bytes", ".path_steps": "count",
    ".iterations": "count", ".rows_per_iteration": "ratio",
    ".us_per_iteration": "us", ".timeouts": "count", ".us_per_call": "us",
    ".nonconverged": "count", ".evals_per_solve": "ratio",
    ".T_star_at_cap": "count", ".nodes": "count", ".ns_per_node": "ns",
    ".values_per_s": "1/s", ".ns_per_cell": "ns", ".mb_per_s": "MB/s",
    ".overlap": "ratio", ".overhead_frac": "ratio",
}
# derived from counts only, so they must repeat exactly at one seed
EXACT = ("count", "bytes")
EXACT_RATIOS = (".rows_per_iteration", ".evals_per_solve")


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def is_exact(name: str) -> bool:
    return unit_of(name) in EXACT or name.endswith(EXACT_RATIOS)
