"""Command line entry point.

Subcommands: validate, simulate, action, quasipotential, exit, front,
verify, all.  Configuration is a schema-validated JSON file; every run
writes its artifacts atomically into an output directory together with a
manifest (config hash, seed, versions, wall time) sufficient to replay
the run.

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
from .errors import ConfigError, NumericalError
from .exit import exit_location_histogram, exit_scaling
from .fields import load_problem, load_preset, validate_hypotheses
from .front import extract_front, fit_front_speed, front_field_constant, \
    front_field_path, front_field_prefix, riemannian_distance
from .ldpcheck import controlled_convergence, h_eps_scaling, laplace_check
from .quasipotential import check_action_equivalence, quasipotential, \
    quasipotential_boundary
from .sde import NoisePath, SimParams, Trajectory, default_step, \
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


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
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


def _atomic_dump(tr: Trajectory, path: str) -> None:
    tmp = os.path.join(os.path.dirname(path),
                       ".tmp-" + os.path.basename(path))
    dump_trajectory(tr, tmp)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (output relpaths, tidy plot rows)

def cmd_validate(p, cfg, out, seed, threads):
    rep = validate_hypotheses(p, samples=2000, seed=seed)
    write_json(os.path.join(out, "validate.json"), rep.as_dict())
    return ["validate.json"], []


def cmd_simulate(p, cfg, out, seed, threads):
    blk = _block(cfg, "simulate")
    eps = float(blk["eps"])
    T = float(blk["T"])
    h = blk.get("h")
    h = snap_step(T, default_step(p, eps) if h is None else h)
    sp = SimParams(eps=eps, T=T, h=h, scheme=blk.get("scheme", "exponential"))
    q0 = np.asarray(blk.get("q0", p.O), dtype=float)
    p0 = np.asarray(blk.get("p0", np.zeros(p.d)), dtype=float)
    n_paths = int(blk.get("n_paths", 1))
    suffix = ".csv.gz" if blk.get("gzip") else ".csv"

    control = None
    if "control_csv" in blk:
        ct, cv = read_path_csv(blk["control_csv"])
        times = np.arange(sp.steps + 1) * sp.h
        control = np.column_stack([
            np.interp(times, ct, cv[:, j]) for j in range(cv.shape[1])])

    outputs, plot = [], []
    for i in range(n_paths):
        noise = NoisePath.generate(seed, i, sp.steps, p.r, sp.h)
        if blk.get("first_order"):
            tr = simulate_first_order(p, sp, q0, noise, control=control)
        else:
            tr = simulate_inertial(p, sp, q0, p0, noise, control=control)
        if blk.get("with_convolution"):
            tr = stochastic_convolution(tr, p, noise)
        name = f"traj_{i:04d}{suffix}"
        _atomic_dump(tr, os.path.join(out, name))
        outputs.append(name)
        stride = max(len(tr.times) // 512, 1)
        plot += [(f"path{i}_q1", t, v) for t, v in
                 zip(tr.times[::stride], tr.q[::stride, 0])]
    return outputs, plot


def cmd_action(p, cfg, out, seed, threads):
    blk = _block(cfg, "action")
    times, pts = read_path_csv(blk["path_csv"])
    f = DiscretePath(T=float(times[-1] - times[0]), points=pts)
    result = {
        "value_standard": path_action(p, f).total,
        "value_alt": path_action_alt(p, f).total,
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


def cmd_quasipotential(p, cfg, out, seed, threads):
    blk = dict(_block(cfg, "quasipotential"))
    boundary = blk.pop("boundary", False)
    want_equiv = blk.pop("equivalence", False)
    kw = {k: blk[k] for k in ("mode", "N", "T_ladder", "refine")
          if k in blk}
    if "T_ladder" in kw:
        kw["T_ladder"] = np.asarray(kw["T_ladder"], dtype=float)
    kw["seed"] = seed
    outputs, plot = [], []

    if boundary:
        scan = quasipotential_boundary(
            p, boundary_samples=blk.get("boundary_samples", 32),
            grid_n=blk.get("grid_n", 201), **kw)
        rows = ([s, *q, v] for s, q, v in
                zip(scan.s, scan.points, scan.values))
        header = ["s"] + [f"q{i+1}" for i in range(p.d)] + ["V"]
        write_csv(os.path.join(out, "boundary.csv"), header, rows)
        write_json(os.path.join(out, "quasipotential.json"), {
            "V0": scan.V0, "q_star": scan.q_star, "index": scan.index,
        })
        outputs += ["boundary.csv", "quasipotential.json"]
        plot += [("boundary_V", s, v) for s, v in zip(scan.s, scan.values)]
        return outputs, plot

    if "q_end" not in blk:
        raise ConfigError(
            "quasipotential block needs q_end (or boundary: true)")
    res = quasipotential(p, blk["q_end"], blk.get("q_start"), **kw)
    write_path_csv(os.path.join(out, "path.csv"),
                   res.path.times, res.path.points)
    info = {
        "value": res.value, "T_star": res.T_star,
        "grad_norm": res.grad_norm, "iterations": res.iterations,
        "converged": res.converged, "path_csv": "path.csv",
    }
    if want_equiv:
        v1, v2, gap = check_action_equivalence(p, blk["q_end"], **kw)
        info["equivalence"] = {"standard": v1, "alt": v2, "rel_gap": gap}
    write_json(os.path.join(out, "quasipotential.json"), info)
    plot += [("path_q1", t, v) for t, v in
             zip(res.path.times, res.path.points[:, 0])]
    return ["quasipotential.json", "path.csv"], plot


def cmd_exit(p, cfg, out, seed, threads):
    blk = _block(cfg, "exit")
    sc = exit_scaling(
        p, np.asarray(blk["eps_ladder"], dtype=float), int(blk["M"]), seed,
        q0=blk.get("q0"), p0=blk.get("p0"), h=blk.get("h"),
        scheme=blk.get("scheme", "exponential"),
        max_steps=blk.get("max_steps"), V0_hint=blk.get("V0_hint"))
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


def cmd_front(p, cfg, out, seed, threads):
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
        fc = extract_front(field_t, level=float(blk.get("level", 0.0)))
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
        speed = fit_front_speed(contours, center=p.O,
                                stat=blk.get("stat", "max"))
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
        res = fn(p, entry["q"], float(entry["t"]),
                 N=blk.get("N", 64), penalty=blk.get("penalty", 1e3),
                 restarts=blk.get("restarts", 8 if mode == "prefix" else 3),
                 seed=seed)
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


def cmd_verify(p, cfg, out, seed, threads):
    blk = _block(cfg, "verify")
    tol = dict(cfg.get("tolerances", {}))
    report = {}
    plot = []

    def run_h():
        s = blk["h_scaling"]
        fit = h_eps_scaling(p, np.asarray(s["eps_ladder"], dtype=float),
                            int(s["M"]), float(s["T"]), seed,
                            k=s.get("k"))
        lo = tol.get("h_exponent_lo", 0.3)
        hi = tol.get("h_exponent_hi", 0.7)
        r2 = tol.get("r_squared_min", 0.9)
        return "h_scaling", {
            "eps": fit.eps_values, "metrics": fit.metric_values,
            "exponent": fit.fitted_exponent, "r_squared": fit.r_squared,
            "passed": bool(lo <= fit.fitted_exponent <= hi
                           and fit.r_squared >= r2),
        }

    def run_c():
        s = blk["controlled"]
        u = _build_control(s["control"])
        fit = controlled_convergence(
            p, u, np.asarray(s["eps_ladder"], dtype=float), int(s["M"]),
            seed, q0=s.get("q0"), p0=s.get("p0"),
            osc_amplitude=s.get("osc_amplitude"))
        decreasing = bool(np.all(np.diff(fit.metric_values) < 0))
        return "controlled", {
            "eps": fit.eps_values, "metrics": fit.metric_values,
            "exponent": fit.fitted_exponent, "monotone": decreasing,
            "passed": decreasing,
        }

    def run_l():
        s = blk["laplace"]
        rep = laplace_check(
            p, s["terminal_cost"], np.asarray(s["eps_ladder"], dtype=float),
            int(s["M"]), float(s["T"]), seed, q0=s.get("q0"),
            N=s.get("N", 64), ci_threshold=s.get("ci_threshold", 0.2))
        gap_tol = tol.get("laplace_rel_gap", 0.25)
        return "laplace", {
            "eps": rep.eps_values, "lhs": rep.lhs_values,
            "flagged": rep.flagged, "extrapolated": rep.extrapolated,
            "variational": rep.variational_value,
            "minimizer_endpoint": rep.minimizer_endpoint,
            "rel_gap": rep.rel_gap,
            "passed": bool(rep.rel_gap <= gap_tol),
        }

    tasks = [fn for key, fn in (("h_scaling", run_h), ("controlled", run_c),
                                ("laplace", run_l)) if key in blk]
    if not tasks:
        raise ConfigError("verify block lists no checks")
    if threads > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(lambda f: f(), tasks))
    else:
        done = [f() for f in tasks]
    for key, val in done:
        report[key] = val
        if "metrics" in val:
            plot += [(key, e, m) for e, m in zip(val["eps"], val["metrics"])]
    report["passed"] = all(v["passed"] for v in report.values()
                           if isinstance(v, dict))
    write_json(os.path.join(out, "verify.json"), report)
    return ["verify.json"], plot


def cmd_all(p, cfg, out, seed, threads):
    from .acceptance import run_all
    blk = cfg.get("all", {})
    results = run_all(scale=float(blk.get("scale", 1.0)), threads=threads,
                      workdir=os.path.join(out, "determinism"))
    wanted = blk.get("criteria")
    if wanted:
        results = [r for r in results if r.index in set(wanted)]
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
        outputs, plot = HANDLERS[command](p, cfg, out, seed,
                                          threads=args.threads)
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
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--emit-plot-data", action="store_true")
    sub = ap.add_subparsers(dest="command")
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=(name != "all"))
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--emit-plot-data", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is None:
        args.threads = os.cpu_count() or 1
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
