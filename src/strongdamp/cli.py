"""Command line entry point.

Subcommands: validate, simulate, action, quasipotential, exit, front,
verify, all.  Configuration is a schema-validated JSON file; every run
writes its artifacts atomically into an output directory together with a
manifest (config hash, seed, versions, wall time) sufficient to replay
the run.

Every command runs serially: its Monte Carlo loops hold the GIL, so a
thread pool cannot overlap them.  `--threads` is accepted for
compatibility and changes nothing; the BLAS thread count is set once,
when the package is imported.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 acceptance failure from `all`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .action import ControlSignal, DiscretePath, control_cost, path_action, \
    path_action_alt, segment_costs
from .artifacts import load_manifest, write_csv, write_grid, write_json, \
    write_manifest, write_path_csv, read_path_csv
from .contour import interp_columns
from .errors import ConfigError, NumericalError
from .exit import exit_location_histogram, exit_scaling
from .expr import q_field
from .fields import load_problem, load_preset, validate_hypotheses
from .front import extract_front, fit_front_speed, front_field_constant, \
    front_field_path, front_field_prefix, riemannian_distance
from .ldpcheck import H_EXPONENT_RANGE, H_R2_MIN, LAPLACE_GAP_MAX, \
    controlled_convergence, h_eps_scaling, laplace_check
from .quasipotential import check_action_equivalence, quasipotential, \
    quasipotential_boundary
from .sde import NoisePath, SimParams, check_ladder, default_step, \
    dump_trajectory, simulate_first_order, simulate_inertial, snap_step, \
    stochastic_convolution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4

COMMANDS = ("validate", "simulate", "action", "quasipotential", "exit",
            "front", "verify", "all")


def _schema() -> dict:
    ref = resources.files("strongdamp").joinpath(
        "schema/runconfig.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _reject_constant(name: str):
    """json.load hook for NaN, Infinity and -Infinity, which Python's json
    accepts but no config number may be."""
    raise ConfigError(f"config number {name} is not finite")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    validate_config(cfg)
    return cfg


@functools.cache
def _validator():
    """The config validator, with the schema checked once per process."""
    from jsonschema import Draft202012Validator
    schema = _schema()
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def validate_config(cfg) -> None:
    from jsonschema.exceptions import best_match
    error = best_match(_validator().iter_errors(cfg))
    if error is not None:
        where = "/".join(str(k) for k in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {error.message}")


def _resolve_problem(cfg: dict):
    spec = cfg["problem"]
    if isinstance(spec, dict):
        return load_problem(spec)
    if os.path.exists(spec):
        return load_problem(spec)
    return load_preset(spec)


def _resolve_seed(args, cfg: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if "seed" in cfg:
        return int(cfg["seed"])
    raise ConfigError(
        "no seed: pass --seed or put a 'seed' key in the config "
        "(runs must be reproducible, there is no default)")


def _resolve_out(args, cfg: dict) -> str:
    out = getattr(args, "out", None) or cfg.get("out_dir") \
        or os.environ.get("STRONGDAMP_OUT")
    if not out:
        raise ConfigError(
            "no output directory: pass --out, set out_dir in the config, "
            "or set STRONGDAMP_OUT")
    os.makedirs(out, exist_ok=True)
    return out


def _block(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"config has no '{name}' block")
    return cfg[name]


def _given(blk: dict, *keys) -> dict:
    """Those of keys that blk sets: a key left out takes the library's
    default, the one copy of each default."""
    return {k: blk[k] for k in keys if k in blk}


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (output relpaths, tidy plot rows)

def cmd_validate(p, cfg, out, seed):
    rep = validate_hypotheses(p, samples=2000, seed=seed)
    write_json(os.path.join(out, "validate.json"), rep.as_dict())
    return ["validate.json"], []


def cmd_simulate(p, cfg, out, seed):
    blk = _block(cfg, "simulate")
    eps = float(blk["eps"])
    T = float(blk["T"])
    h = blk.get("h")
    h = snap_step(T, default_step(p, eps) if h is None else h)
    sp = SimParams(eps=eps, T=T, h=h, **_given(blk, "scheme"))
    q0 = np.asarray(blk.get("q0", p.O), dtype=float)
    p0 = np.asarray(blk.get("p0", np.zeros(p.d)), dtype=float)
    n_paths = int(blk.get("n_paths", 1))
    suffix = ".csv.gz" if blk.get("gzip") else ".csv"

    control = None
    if "control_csv" in blk:
        ct, cv = read_path_csv(blk["control_csv"])
        control = interp_columns(np.arange(sp.steps + 1) * sp.h, ct, cv)

    outputs, plot = [], []
    for start, noise in NoisePath.batches(seed, n_paths, sp.steps, p.r,
                                          sp.h):
        if blk.get("first_order"):
            batch = simulate_first_order(p, sp, q0, noise, control=control)
        else:
            batch = simulate_inertial(p, sp, q0, p0, noise, control=control)
        if blk.get("with_convolution"):
            batch = stochastic_convolution(batch, p, noise)
        for row in range(batch.q.shape[0]):
            tr = batch.row(row)
            i = start + row
            name = f"traj_{i:04d}{suffix}"
            dump_trajectory(tr, os.path.join(out, name))
            outputs.append(name)
            stride = max(len(tr.times) // 512, 1)
            plot += [(f"path{i}_q1", t, v) for t, v in
                     zip(tr.times[::stride], tr.q[::stride, 0])]
    return outputs, plot


def cmd_action(p, cfg, out, seed):
    blk = _block(cfg, "action")
    times, pts = read_path_csv(blk["path_csv"])
    f = DiscretePath(T=float(times[-1] - times[0]), points=pts)
    result = {
        "value_standard": path_action(p, f),
        "value_alt": path_action_alt(p, f),
        "segments_csv": "segments.csv",
    }
    if "control_csv" in blk:
        ct, cv = read_path_csv(blk["control_csv"])
        u = ControlSignal(T=float(ct[-1] - ct[0]), values=cv)
        result["control_energy"] = control_cost(u)
    cs = segment_costs(p, f, "standard")
    ca = segment_costs(p, f, "alt")
    write_csv(os.path.join(out, "segments.csv"),
              ["k", "cost_standard", "cost_alt"],
              ([k, a, b] for k, (a, b) in enumerate(zip(cs, ca))))
    write_json(os.path.join(out, "action.json"), result)
    plot = [("segment_cost", k, v) for k, v in enumerate(cs)]
    return ["action.json", "segments.csv"], plot


def cmd_quasipotential(p, cfg, out, seed):
    blk = _block(cfg, "quasipotential")
    # the schema keeps q_start out of a boundary block
    kw = _given(blk, "q_start", "N", "T_ladder", "refine")
    kw["seed"] = seed

    if blk.get("boundary"):
        scan = quasipotential_boundary(
            p, **_given(blk, "boundary_samples", "grid_n", "mode"), **kw)
        rows = ([s, *q, v] for s, q, v in
                zip(scan.s, scan.points, scan.values))
        header = ["s"] + [f"q{i+1}" for i in range(p.d)] + ["V"]
        write_csv(os.path.join(out, "boundary.csv"), header, rows)
        write_json(os.path.join(out, "quasipotential.json"), {
            "V0": scan.V0, "q_star": scan.q_star, "index": scan.index,
        })
        plot = [("boundary_V", s, v) for s, v in zip(scan.s, scan.values)]
        return ["boundary.csv", "quasipotential.json"], plot

    if "q_end" not in blk:
        raise ConfigError(
            "quasipotential block needs q_end (or boundary: true)")
    info = {"path_csv": "path.csv"}
    if blk.get("equivalence"):
        # both forms from one q_start; the reported result is mode's form
        standard, alt, gap = check_action_equivalence(p, blk["q_end"], **kw)
        info["equivalence"] = {"standard": standard.value,
                               "alt": alt.value, "rel_gap": gap}
        res = alt if blk.get("mode") == "alt" else standard
    else:
        res = quasipotential(p, blk["q_end"], **_given(blk, "mode"), **kw)
    write_path_csv(os.path.join(out, "path.csv"),
                   res.path.times, res.path.points)
    info.update(value=res.value, T_star=res.T_star, grad_norm=res.grad_norm,
                iterations=res.iterations, converged=res.converged)
    write_json(os.path.join(out, "quasipotential.json"), info)
    plot = [("path_q1", t, v) for t, v in
            zip(res.path.times, res.path.points[:, 0])]
    return ["quasipotential.json", "path.csv"], plot


def cmd_exit(p, cfg, out, seed):
    blk = _block(cfg, "exit")
    sc = exit_scaling(
        p, blk["eps_ladder"], int(blk["M"]), seed,
        **_given(blk, "q0", "p0", "h", "scheme", "max_steps", "V0_hint"))
    write_csv(os.path.join(out, "rungs.csv"),
              ["eps", "n", "mean_tau", "ci", "eps_log_mean", "timeouts"],
              ([s.eps, s.n_samples, s.mean_tau, s.ci_halfwidth,
                s.eps_log_mean, s.timeouts] for s in sc.stats))
    pts_rows = []
    for s in sc.stats:
        for tau, pt in zip(s.taus, s.exit_points):
            pts_rows.append([s.eps, tau, *pt])
    header = ["eps", "tau"] + [f"q{i+1}" for i in range(p.d)]
    write_csv(os.path.join(out, "exit_points.csv"), header, pts_rows)
    summary = {
        "limit": sc.limit, "slope": sc.slope, "used_eps": sc.used_eps,
        "lower_bound": any(s.lower_bound for s in sc.stats),
    }
    outputs = ["rungs.csv", "exit_points.csv", "summary.json"]
    bins = blk.get("histogram_bins")
    if bins:
        hist = exit_location_histogram(sc.stats[-1], bins=int(bins),
                                       center=p.O)
        write_csv(os.path.join(out, "histogram.csv"),
                  ["lo", "hi", "count"],
                  ([lo, hi, c] for lo, hi, c in
                   zip(hist.edges[:-1], hist.edges[1:], hist.counts)))
        summary["histogram"] = {
            "kind": hist.kind, "mode": hist.mode,
            "mode_point": hist.mode_point,
        }
        outputs.append("histogram.csv")
    write_json(os.path.join(out, "summary.json"), summary)
    plot = [("eps_log_mean", s.eps, s.eps_log_mean) for s in sc.stats]
    return outputs, plot


def _fmt_t(t: float) -> str:
    return f"{t:g}".replace(".", "p")


def cmd_front(p, cfg, out, seed):
    blk = _block(cfg, "front")
    spacing = float(blk["spacing"])
    rho = riemannian_distance(p, spacing)
    write_grid(os.path.join(out, "distance.csv"), rho)
    outputs = ["distance.csv", "distance.meta.json"]
    plot = []

    contours = []
    for t in blk.get("t_values", ()):
        field_t = front_field_constant(rho, float(blk["c"]), float(t))
        grid_name = f"rfield_t{_fmt_t(t)}.csv"
        write_grid(os.path.join(out, grid_name), field_t)
        outputs += [grid_name, grid_name[:-4] + ".meta.json"]
        fc = extract_front(field_t, **_given(blk, "level"))
        polys = fc.polylines if fc.polylines is not None else [fc.points]
        for k, poly in enumerate(polys):
            name = f"front_t{_fmt_t(t)}_{k}.csv"
            pts = np.atleast_2d(np.asarray(poly, dtype=float))
            header = ["x"] if pts.shape[1] == 1 else ["x", "y"]
            write_csv(os.path.join(out, name), header, pts)
            outputs.append(name)
        contours.append((float(t), fc))
    info = {}
    if contours:
        speed = fit_front_speed(contours, center=p.O, **_given(blk, "stat"))
        info["speed"] = {
            "value": speed.speed, "stat": speed.stat,
            "times": speed.times, "radii": speed.radii,
        }
        plot += [("front_radius", t, r)
                 for t, r in zip(speed.times, speed.radii)]

    rows = []
    for entry in blk.get("path_points", ()):
        mode = entry.get("mode", "prefix")
        fn = front_field_prefix if mode == "prefix" else front_field_path
        res = fn(p, entry["q"], float(entry["t"]), seed=seed,
                 **_given(blk, "N", "penalty", "restarts"))
        rows.append([entry["t"], *entry["q"], mode, res.value])
    if rows:
        header = ["t"] + [f"q{i+1}" for i in range(p.d)] + ["mode", "value"]
        write_csv(os.path.join(out, "path_values.csv"), header, rows)
        outputs.append("path_values.csv")
    if info:
        write_json(os.path.join(out, "front.json"), info)
        outputs.append("front.json")
    return outputs, plot


def _build_control(spec: dict) -> ControlSignal:
    kind = spec["kind"]
    T = float(spec["T"])
    n = int(spec.get("N", 256))
    tt = np.linspace(0.0, T, n + 1)
    if kind == "zero":
        return ControlSignal(T=T, values=np.zeros(n + 1))
    if kind == "sin":
        a = float(spec.get("amplitude", 1.0))
        w = float(spec.get("frequency", 1.0))
        return ControlSignal(T=T, values=a * np.sin(w * tt))
    times, vals = read_path_csv(spec["path"])
    return ControlSignal(T=float(times[-1] - times[0]), values=vals)


def cmd_verify(p, cfg, out, seed):
    blk = _block(cfg, "verify")
    tol = cfg.get("tolerances", {})
    # every block's inputs are checked before the first path is drawn (the
    # schema has already checked each ladder's length)
    for name, s in blk.items():
        check_ladder(s["eps_ladder"], 1)
        for key in ("q0", "p0"):
            if key in s:
                p.point(s[key], key)
        if name == "laplace":
            q_field(s["terminal_cost"], p.d, "terminal cost")
        if name == "controlled":
            u = _build_control(s["control"])
    report = {}
    if "h_scaling" in blk:
        s = blk["h_scaling"]
        fit = h_eps_scaling(p, s["eps_ladder"], int(s["M"]), float(s["T"]),
                            seed, **_given(s, "k"))
        lo = tol.get("h_exponent_lo", H_EXPONENT_RANGE[0])
        hi = tol.get("h_exponent_hi", H_EXPONENT_RANGE[1])
        r2 = tol.get("r_squared_min", H_R2_MIN)
        report["h_scaling"] = {
            "eps": fit.eps_values, "metrics": fit.metric_values,
            "exponent": fit.fitted_exponent, "r_squared": fit.r_squared,
            "passed": bool(lo <= fit.fitted_exponent <= hi
                           and fit.r_squared >= r2),
        }
    if "controlled" in blk:
        s = blk["controlled"]
        fit = controlled_convergence(
            p, u, s["eps_ladder"], int(s["M"]), seed,
            **_given(s, "q0", "p0", "osc_amplitude"))
        decreasing = bool(np.all(np.diff(fit.metric_values) < 0))
        report["controlled"] = {
            "eps": fit.eps_values, "metrics": fit.metric_values,
            "exponent": fit.fitted_exponent, "monotone": decreasing,
            "passed": decreasing,
        }
    if "laplace" in blk:
        s = blk["laplace"]
        rep = laplace_check(
            p, s["terminal_cost"], s["eps_ladder"], int(s["M"]),
            float(s["T"]), seed,
            **_given(s, "q0", "N", "ci_threshold"))
        gap_tol = tol.get("laplace_rel_gap", LAPLACE_GAP_MAX)
        report["laplace"] = {
            "eps": rep.eps_values, "lhs": rep.lhs_values,
            "flagged": rep.flagged, "extrapolated": rep.extrapolated,
            "variational": rep.variational_value,
            "minimizer_endpoint": rep.minimizer_endpoint,
            "rel_gap": rep.rel_gap,
            "passed": bool(rep.rel_gap <= gap_tol),
        }
    if not report:
        raise ConfigError("verify block lists no checks")
    plot = [(key, e, m) for key, val in report.items() if "metrics" in val
            for e, m in zip(val["eps"], val["metrics"])]
    report["passed"] = all(v["passed"] for v in report.values())
    write_json(os.path.join(out, "verify.json"), report)
    return ["verify.json"], plot


def cmd_all(p, cfg, out, seed):
    from . import acceptance
    blk = cfg.get("all", {})
    scale = float(blk.get("scale", 1.0))
    workdir = os.path.join(out, "determinism")
    if "criteria" in blk:
        results = [acceptance.run_criterion(i, scale, workdir)
                   for i in sorted(set(blk["criteria"]))]
    else:
        results = acceptance.run_all(scale, workdir)
    for res in results:
        print(res.line())
    report = {
        "passed": all(r.passed for r in results),
        "criteria": [{
            "index": r.index, "name": r.name, "passed": r.passed,
            "detail": r.detail, "runtime_s": r.runtime_s, "data": r.data,
        } for r in results],
    }
    write_json(os.path.join(out, "acceptance_report.json"), report)
    if not report["passed"]:
        raise AcceptanceFailure("acceptance criteria failed")
    return ["acceptance_report.json"], []


class AcceptanceFailure(Exception):
    pass


HANDLERS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "action": cmd_action,
    "quasipotential": cmd_quasipotential,
    "exit": cmd_exit,
    "front": cmd_front,
    "verify": cmd_verify,
    "all": cmd_all,
}


def _run(command: str, cfg: dict, args) -> int:
    t0 = time.time()
    seed = _resolve_seed(args, cfg)
    out = _resolve_out(args, cfg)
    p = _resolve_problem(cfg)
    try:
        outputs, plot = HANDLERS[command](p, cfg, out, seed)
    except AcceptanceFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ACCEPTANCE
    if getattr(args, "emit_plot_data", False):
        write_csv(os.path.join(out, "plotdata.csv"),
                  ["series", "x", "y"],
                  ([s, x, y] for s, x, y in plot))
        outputs = list(outputs) + ["plotdata.csv"]
    write_manifest(out, command, cfg, seed, outputs, time.time() - t0)
    print(f"{command}: wrote {len(outputs)} artifact(s) to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="strongdamp",
        description=__doc__.split("\n\n")[0])
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--replay", metavar="MANIFEST",
                    help="re-run the command recorded in a manifest")
    sub = ap.add_subparsers(dest="command")
    parsers = [ap]
    for name in COMMANDS:
        parsers.append(sub.add_parser(name))
        parsers[-1].add_argument("--config", required=(name != "all"))
    for parser in parsers:
        parser.add_argument("--seed", type=int, default=None)
        parser.add_argument("--threads", type=int, default=None,
                            help="accepted for compatibility; changes nothing")
        parser.add_argument("--out", default=None)
        parser.add_argument("--emit-plot-data", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.replay:
            manifest = load_manifest(args.replay)
            cfg = manifest["config"]
            validate_config(cfg)
            if args.seed is None:
                args.seed = int(manifest["seed"])
            return _run(manifest["command"], cfg, args)
        if not args.command:
            raise ConfigError(
                "no subcommand: expected one of " + ", ".join(COMMANDS))
        if args.command == "all" and not args.config:
            cfg = {"problem": "p1", "all": {}}
        else:
            cfg = load_config(args.config)
        return _run(args.command, cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
