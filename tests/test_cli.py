"""End-to-end command line checks, in process via cli.main where possible."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import strongdamp
import strongdamp.acceptance
import strongdamp.exit
import strongdamp.ldpcheck
from strongdamp import __version__, cli
from strongdamp.acceptance import CriterionResult
from strongdamp.artifacts import hash_tree, load_manifest, read_csv, \
    write_path_csv
from strongdamp.errors import ConfigError


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


P1_SPEC = json.loads((Path(strongdamp.__file__).parent / "presets"
                      / "p1.json").read_text())


SIM_CFG = {
    "problem": "p1",
    "simulate": {"eps": 0.3, "T": 0.1, "n_paths": 2,
                 "with_convolution": True},
}


def test_no_subcommand_is_config_error(capsys):
    assert cli.main([]) == 2
    assert "no subcommand" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"problem\": ")
    rc = cli.main(["simulate", "--config", str(path),
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("block", ['"eps": 0.3, "T": NaN',
                                   '"eps": 0.3, "T": 0.1, "h": NaN',
                                   '"eps": 0.3, "T": Infinity',
                                   '"eps": -Infinity, "T": 0.1'])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, block):
    """Python's json reads NaN and +-Infinity; a config may not hold them."""
    path = tmp_path / "cfg.json"
    path.write_text('{"problem": "p1", "simulate": {' + block + '}}')
    rc = cli.main(["simulate", "--config", str(path),
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("over", [{"box": [[-np.inf, np.inf]]},
                                  {"alpha0": np.inf}])
def test_non_finite_problem_file_is_config_error(tmp_path, capsys, over):
    """A problem file read from disk holds no infinite box or alpha0
    (json.dumps writes inf as Infinity)."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({**P1_SPEC, **over}))
    cfg = write_cfg(tmp_path, {"problem": str(problem)})
    for cmd in ("validate", "quasipotential"):
        rc = cli.main([cmd, "--config", cfg,
                       "--seed", "0", "--out", str(tmp_path / cmd)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    json.dumps({**P1_SPEC, "alpha0": "x"}),
    json.dumps({**P1_SPEC, "box": [[-2, "a"]]}),
    json.dumps({**P1_SPEC, "O": ["z"]}),
    json.dumps({**P1_SPEC, "beta": "q"}),
    json.dumps({**P1_SPEC, "r": 1.0}),
    json.dumps({**P1_SPEC, "d": True}),
    '{"d": 1, "b": ',
    b'\xff{"d": 1}',
    None,                       # the problem path is a directory
    json.dumps({**P1_SPEC, "b": ["-q1 + u"]}),
    json.dumps({**P1_SPEC, "sigma": [["1 + 0*u"]]}),
    json.dumps({**P1_SPEC, "alpha": "1 + u^2"}),
    json.dumps({**P1_SPEC, "l": ["u"]}),
], ids=["alpha0_string", "box_string", "O_string", "beta_string",
        "r_float", "d_bool", "not_json", "not_utf8", "directory", "u_in_b",
        "u_in_sigma", "u_in_alpha", "u_in_l"])
def test_malformed_problem_file_is_config_error(tmp_path, capsys, text):
    """A problem file that breaks a rule of README's "Problem definitions"
    exits 2 before anything is simulated."""
    problem = tmp_path / "problem.json"
    if text is None:
        problem.mkdir()
    else:
        problem.write_bytes(text.encode() if isinstance(text, str) else text)
    cfg = write_cfg(tmp_path, {**SIM_CFG, "problem": str(problem)})
    rc = cli.main(["simulate", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": "p1", "simulte": {}})
    rc = cli.main(["validate", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config invalid" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"problem": "p1", "simulte": {}},
    {"problem": "p1", "seed": "7"},
    {"problem": "p1", "exit": {"eps_ladder": [0.5], "M": 0}},
    {"problem": "p1", "simulate": {"eps": 0.3}},
    {"problem": 3},
], ids=["unknown_key", "wrong_type", "M_below_minimum", "missing_key",
        "no_branch"])
def test_config_errors_match_jsonschema_validate(cfg):
    """The cached validator reports the error jsonschema.validate picks."""
    import jsonschema
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(cfg, cli._schema(),
                            cls=jsonschema.Draft202012Validator)
    where = "/".join(str(k) for k in ref.value.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        cli.validate_config(cfg)
    assert str(got.value) == f"config invalid at {where}: {ref.value.message}"


def test_seed_is_mandatory(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG)
    rc = cli.main(["simulate", "--config", cfg,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "no seed" in capsys.readouterr().err


def test_out_dir_is_mandatory(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("STRONGDAMP_OUT", raising=False)
    cfg = write_cfg(tmp_path, SIM_CFG)
    rc = cli.main(["simulate", "--config", cfg, "--seed", "0"])
    assert rc == 2
    assert "no output directory" in capsys.readouterr().err


def test_euler_instability_is_numerical_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": "p1",
        "simulate": {"eps": 0.1, "T": 0.1, "h": 0.05, "scheme": "euler"},
    })
    rc = cli.main(["simulate", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_exit_rejects_eps_above_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": "p1", "exit": {"eps_ladder": [1.5], "M": 2}})
    rc = cli.main(["exit", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "eps must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("q0, phi", [(2.0, "3"), (1.0, "0")],
                         ids=["outside", "on_boundary"])
def test_exit_start_outside_G_is_config_error(tmp_path, monkeypatch, capsys,
                                              q0, phi):
    """On p1 (phi = q1^2 - 1) a start on or outside G exits at tau = 0
    on every row, which has no eps log E[tau]; it exits 2, stating
    phi(q0), before the kernel draws a path."""
    monkeypatch.setattr(strongdamp.exit, "_exit_kernel", None)
    cfg = write_cfg(tmp_path, {
        "problem": "p1", "exit": {"eps_ladder": [0.35], "M": 2, "q0": [q0]}})
    rc = cli.main(["exit", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"q0 = [{q0}] is not inside G: phi(q0) = {phi}"
            in capsys.readouterr().err)


def test_verify_rejects_an_increasing_ladder(tmp_path, capsys):
    """Listed upward, these rungs made a failed check out of metrics that
    grow with eps; a ladder must decrease, so the command exits 2."""
    cfg = write_cfg(tmp_path, {"problem": "p2", "verify": {"controlled": {
        "eps_ladder": [0.05, 0.1, 0.2], "M": 40,
        "control": {"kind": "sin", "T": 1.5}}}})
    rc = cli.main(["verify", "--config", cfg,
                   "--seed", "5", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "eps ladder must be strictly decreasing" in capsys.readouterr().err


VALID_VERIFY = {
    "h_scaling": {"eps_ladder": [0.2, 0.1, 0.05], "M": 1000, "T": 2e-4},
    "controlled": {"eps_ladder": [0.2, 0.1, 0.05], "M": 200,
                   "control": {"kind": "sin", "T": 1.5}},
}
LAPLACE = {"terminal_cost": "q1^2", "eps_ladder": [0.25, 0.125], "M": 40,
           "T": 0.5}


@pytest.mark.parametrize("last, message", [
    ({"laplace": {**LAPLACE, "eps_ladder": [0.125, 0.25]}},
     "eps ladder must be strictly decreasing"),
    ({"laplace": {**LAPLACE, "q0": [0.0, 0.5]}},
     "q0 must have shape (1,)"),
    ({"laplace": {**LAPLACE, "terminal_cost": "q2^2"}},
     "terminal cost references q2 but d = 1"),
    ({"controlled": {**VALID_VERIFY["controlled"], "p0": [0.0, 1.0]}},
     "p0 must have shape (1,)"),
    ({"controlled": {**VALID_VERIFY["controlled"], "control": {
        "kind": "csv", "T": 1.0, "path": "missing.csv"}}},
     "not found: missing.csv"),
], ids=["laplace_ladder", "laplace_q0", "laplace_cost", "controlled_p0",
        "missing_control_csv"])
def test_verify_checks_every_block_before_any_path(
        tmp_path, monkeypatch, capsys, last, message):
    """A mistake in the last block to run exits 2 before the earlier
    blocks draw a single noise batch."""
    from strongdamp.sde import NoisePath
    drawn = []
    real = NoisePath.generate_batch.__func__
    monkeypatch.setattr(NoisePath, "generate_batch", classmethod(
        lambda cls, *args: drawn.append(args) or real(cls, *args)))
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {"problem": "p2",
                               "verify": {**VALID_VERIFY, **last}})
    rc = cli.main(["verify", "--config", cfg, "--seed", "5", "--out", "out"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert drawn == []


def test_exit_drift_domain_error_is_numerical_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": {
            "d": 1, "r": 1, "b": ["2 + 0.001*log(2 - q1)"],
            "sigma": [["0.1"]], "alpha": "1", "alpha0": 1.0,
            "G": "q1^2 - 9", "O": [0.0], "box": [[-3.0, 3.0]]},
        "exit": {"eps_ladder": [0.15], "M": 4}})
    rc = cli.main(["exit", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "log(2 - q1)" in capsys.readouterr().err


@pytest.mark.parametrize("problem, command, block", [
    ("p1", "exit", {"eps_ladder": [0.35], "M": 2, "q0": [0.0, 0.0]}),
    ("p1", "exit", {"eps_ladder": [0.35], "M": 2, "p0": [0.0, 0.0]}),
    ("p1", "simulate", {"eps": 0.3, "T": 0.1, "p0": [0.0, 1.0]}),
    ("p1", "quasipotential", {"q_end": [1.0, 1.0], "q_start": [0.0, 0.0]}),
    ("p3", "quasipotential", {"q_end": [0.5], "q_start": [0.0]}),
], ids=["exit_q0", "exit_p0", "simulate_p0", "quasipotential_d2_on_p1",
        "quasipotential_d1_on_p3"])
def test_wrong_length_start_vector_is_config_error(tmp_path, capsys,
                                                   problem, command, block):
    cfg = write_cfg(tmp_path, {"problem": problem, command: block})
    rc = cli.main([command, "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    d = {"p1": 1, "p3": 2}[problem]
    assert f"must have shape ({d},)" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("scheme", "euler"), ("p0", [5.0]),
                                        ("with_convolution", True)])
def test_simulate_keys_the_first_order_limit_ignores_are_rejected(
        tmp_path, capsys, key, value):
    """The first-order limit has no momentum, one scheme and no inertial
    stochastic convolution."""
    cfg = write_cfg(tmp_path, {"problem": "p1", "simulate": {
        "eps": 0.1, "T": 0.1, "h": 0.001, "first_order": True, key: value}})
    rc = cli.main(["simulate", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config invalid at simulate/{key}:" in capsys.readouterr().err


def test_first_order_limit_needs_a_step(tmp_path, capsys):
    """The limit equation has no eps^2 time scale, so the inertial step
    rule h ~ eps^2 does not apply to it: h is required."""
    cfg = write_cfg(tmp_path, {"problem": "p1", "simulate": {
        "eps": 0.1, "T": 0.1, "first_order": True}})
    rc = cli.main(["simulate", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'h' is a required property" in capsys.readouterr().err


def test_first_order_step_does_not_depend_on_eps(tmp_path):
    """With h given, the limit takes the same steps at every eps."""
    rows = []
    for eps in (0.01, 0.1):
        cfg = write_cfg(tmp_path, {"problem": "p1", "simulate": {
            "eps": eps, "T": 0.1, "h": 0.001, "first_order": True}})
        out = tmp_path / f"eps{eps}"
        assert cli.main(["simulate", "--config", cfg,
                         "--seed", "0", "--out", str(out)]) == 0
        rows.append(read_csv(str(out / "traj_0000.csv"))[1].shape[0])
    assert rows == [101, 101]


@pytest.mark.parametrize("block, key", [
    ({"boundary": True, "q_end": [1.0]}, "q_end"),
    ({"boundary": True, "q_start": [0.0]}, "q_start"),
    ({"boundary": True, "equivalence": True}, "equivalence"),
    ({"q_end": [1.0], "boundary_samples": 4}, "boundary_samples"),
    ({"boundary": False, "q_end": [1.0], "grid_n": 41}, "grid_n"),
], ids=["boundary_q_end", "boundary_q_start", "boundary_equivalence",
        "point_boundary_samples", "point_grid_n"])
def test_quasipotential_keys_the_branch_ignores_are_rejected(
        tmp_path, capsys, block, key):
    cfg = write_cfg(tmp_path, {"problem": "p1_tilted",
                               "quasipotential": block})
    rc = cli.main(["quasipotential", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config invalid at quasipotential/{key}:" in \
        capsys.readouterr().err


def test_quasipotential_boundary_scan_on_tilted_well(tmp_path):
    """p1_tilted: V = 2 (U(q) - U(O)) is 0.64 at q* = -1 and 1.44 at +1."""
    cfg = write_cfg(tmp_path, {"problem": "p1_tilted", "quasipotential": {
        "boundary": True, "N": 16, "T_ladder": [2.0, 4.0, 8.0]}})
    out = tmp_path / "out"
    assert cli.main(["quasipotential", "--config", cfg,
                     "--seed", "0", "--out", str(out)]) == 0
    header, rows = read_csv(str(out / "boundary.csv"))
    assert header == ["s", "q1", "V"]
    np.testing.assert_allclose(rows[:, 1], [-1.0, 1.0], atol=1e-6)
    info = json.loads((out / "quasipotential.json").read_text())
    assert abs(info["V0"] - 0.64) <= 1e-2
    np.testing.assert_allclose(info["q_star"], [-1.0], atol=1e-6)


def _run_equivalence(tmp_path, monkeypatch, problem, block):
    """Run an equivalence request; return its quasipotential.json and the
    mode of every quasipotential solve it made."""
    # the package exports the function under its module's name
    module = sys.modules["strongdamp.quasipotential"]
    modes = []
    solve = module.quasipotential

    def counted(*args, **kwargs):
        modes.append(kwargs.get("mode"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(module, "quasipotential", counted)
    monkeypatch.setattr(cli, "quasipotential", counted)
    cfg = write_cfg(tmp_path, {"problem": problem, "quasipotential": {
        **block, "equivalence": True}})
    out = tmp_path / "out"
    assert cli.main(["quasipotential", "--config", cfg,
                     "--seed", "0", "--out", str(out)]) == 0
    return json.loads((out / "quasipotential.json").read_text()), modes


def test_equivalence_reports_the_mode_form_from_one_solve_per_form(
        tmp_path, monkeypatch):
    info, modes = _run_equivalence(tmp_path, monkeypatch, "p1", {
        "q_end": [1.0], "N": 16, "T_ladder": [1.0, 2.0, 4.0],
        "mode": "alt"})
    assert modes == ["standard", "alt"]
    assert info["value"] == info["equivalence"]["alt"]


def test_equivalence_starts_both_forms_at_q_start(tmp_path, monkeypatch):
    """p2 from 0.5 to 1: V = 2 (U(1) - U(0.5)) = 0.75 under either form."""
    info, modes = _run_equivalence(tmp_path, monkeypatch, "p2", {
        "q_start": [0.5], "q_end": [1.0], "N": 24})
    assert modes == ["standard", "alt"]
    eq = info["equivalence"]
    assert info["value"] == eq["standard"]
    for form in ("standard", "alt"):
        assert eq[form] == pytest.approx(0.75, rel=1e-3)


@pytest.mark.parametrize("point", [
    {"t": 1.0, "q": [1.0, 2.0], "mode": "path"},
    {"t": 1.0, "q": [1.0, 2.0], "mode": "prefix"},
    {"t": 1.0, "q": [], "mode": "path"},
], ids=["path_d2", "prefix_d2", "path_d0"])
def test_front_point_of_wrong_dimension_is_config_error(tmp_path, capsys,
                                                        point):
    cfg = write_cfg(tmp_path, {"problem": "kpp1d", "front": {
        "spacing": 0.05, "path_points": [point]}})
    rc = cli.main(["front", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "must have shape (1,)" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("front", "per_dim", 4096),
    ("action", "q0", [0.0]),
], ids=["front_per_dim", "action_q0"])
def test_unused_keys_are_rejected(tmp_path, capsys, command, key, value):
    path_csv = str(tmp_path / "path.csv")
    t = np.linspace(0.0, 1.0, 33)
    write_path_csv(path_csv, t, t[:, None], prefix="q")
    block = {"front": {"spacing": 0.05},
             "action": {"path_csv": path_csv}}[command]
    cfg = write_cfg(tmp_path, {"problem": "kpp1d",
                               command: {**block, key: value}})
    rc = cli.main([command, "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "Additional properties are not allowed" in capsys.readouterr().err


CSV_CONTROL = {"eps_ladder": [0.3], "M": 2,
               "control": {"kind": "csv", "T": 1.0}}


@pytest.mark.parametrize("problem, command, block, message", [
    ("kpp1d", "front", {"spacing": 0.05, "t_values": [1.0]},
     "'c' is a dependency of 't_values'"),
    ("p1", "verify", {"controlled": CSV_CONTROL},
     "'path' is a required property"),
    ("p1", "action", {"path_csv": "missing.csv"}, "not found: missing.csv"),
    ("p1", "simulate", {"eps": 0.3, "T": 0.1, "control_csv": "missing.csv"},
     "not found: missing.csv"),
    ("p1", "verify", {"controlled": {**CSV_CONTROL, "control": {
        **CSV_CONTROL["control"], "path": "missing.csv"}}},
     "not found: missing.csv"),
], ids=["front_t_values_without_c", "csv_control_without_path",
        "missing_action_path_csv", "missing_simulate_control_csv",
        "missing_csv_control_path"])
def test_incomplete_config_is_config_error(tmp_path, monkeypatch, capsys,
                                           problem, command, block,
                                           message):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {"problem": problem, command: block})
    rc = cli.main([command, "--config", cfg, "--seed", "0", "--out", "out"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_laplace_cost_beyond_d_is_rejected_before_simulating(
        tmp_path, monkeypatch, capsys):
    def no_paths(*args, **kwargs):
        raise AssertionError("laplace check drew paths")

    monkeypatch.setattr(strongdamp.ldpcheck, "path_values", no_paths)
    cfg = write_cfg(tmp_path, {"problem": "p1", "verify": {"laplace": {
        "terminal_cost": "q2^2", "eps_ladder": [0.25, 0.125], "M": 4,
        "T": 0.5}}})
    rc = cli.main(["verify", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "terminal cost references q2 but d = 1" in capsys.readouterr().err


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    outs = [str(tmp_path / f"out{i}") for i in (0, 1)]
    for out in outs:
        assert cli.main(["simulate", "--config", cfg,
                         "--seed", "3", "--out", out]) == 0
    a, b = hash_tree(outs[0]), hash_tree(outs[1])
    assert a == b
    assert set(a) == {"traj_0000.csv", "traj_0001.csv"}


def test_simulate_batch_matches_single_path_reference(tmp_path):
    """`simulate` runs its paths as one batch; each file matches the path
    simulated, convolved and dumped on its own."""
    from strongdamp.fields import load_preset
    from conftest import noise_row
    from strongdamp.sde import SimParams, default_step, dump_trajectory, \
        simulate_inertial, snap_step, stochastic_convolution
    blk = {"eps": 0.2, "T": 0.3, "n_paths": 3, "with_convolution": True,
           "q0": [0.4], "p0": [0.1]}
    cfg = write_cfg(tmp_path, {"problem": "p2", "simulate": blk})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg,
                     "--seed", "17", "--out", str(out)]) == 0
    p = load_preset("p2")
    sp = SimParams(eps=0.2, T=0.3, h=snap_step(0.3, default_step(p, 0.2)))
    for i in range(3):
        noise = noise_row(17, i, sp.steps, p.r, sp.h)
        tr = simulate_inertial(p, sp, np.array([0.4]), np.array([0.1]),
                               noise)
        ref = tmp_path / f"ref_{i}.csv"
        dump_trajectory(stochastic_convolution(tr, p, noise), str(ref))
        got = (out / f"traj_{i:04d}.csv").read_text().splitlines()
        want = ref.read_text().splitlines()
        assert got[0] == want[0] == "t,q1,p1,H1"
        a = np.array([row.split(",") for row in got[1:]], dtype=float)
        b = np.array([row.split(",") for row in want[1:]], dtype=float)
        assert a.shape == b.shape == (sp.steps + 1, 4)
        np.testing.assert_array_equal(a[:, 0], b[:, 0])
        np.testing.assert_allclose(a[:, 1:], b[:, 1:], rtol=0, atol=1e-14)


def test_seed_flag_changes_bytes(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    outs = [str(tmp_path / f"out{i}") for i in (0, 1)]
    assert cli.main(["simulate", "--config", cfg,
                     "--seed", "3", "--out", outs[0]]) == 0
    assert cli.main(["simulate", "--config", cfg,
                     "--seed", "4", "--out", outs[1]]) == 0
    assert hash_tree(outs[0]) != hash_tree(outs[1])


def test_config_seed_and_env_out_are_honored(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("STRONGDAMP_OUT", str(out))
    cfg = write_cfg(tmp_path, dict(SIM_CFG, seed=11))
    assert cli.main(["simulate", "--config", cfg]) == 0
    m = load_manifest(str(out / "manifest.json"))
    assert m["seed"] == 11
    assert m["command"] == "simulate"


def test_replay_reproduces_bytes(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    first = str(tmp_path / "first")
    again = str(tmp_path / "again")
    assert cli.main(["simulate", "--config", cfg,
                     "--seed", "5", "--out", first]) == 0
    rc = cli.main(["--replay", os.path.join(first, "manifest.json"),
                   "--out", again])
    assert rc == 0
    assert hash_tree(first) == hash_tree(again)
    assert load_manifest(os.path.join(again, "manifest.json"))["seed"] == 5


@pytest.mark.parametrize("text", [
    None,
    '{"command": ',
    '{"command": "simulate", "seed": 5, "config": {"problem": "p1",'
    ' "simulate": {"eps": 0.3, "T": NaN}}}',
    '{"command": "bogus", "seed": 5, "config": {"problem": "p1"}}',
    '3',
], ids=["missing", "not_json", "non_finite", "unknown_command",
        "not_an_object"])
def test_bad_replay_manifest_is_config_error(tmp_path, capsys, text):
    """--replay reads its manifest as load_config reads a config, and
    replays only a known command."""
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_text(text)
    rc = cli.main(["--replay", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


REPLAY = {"command": "validate", "config": {"problem": "p1"}}


@pytest.mark.parametrize("role, content, message", [
    ("config", None, "cannot read config file"),
    ("config", b'\xff{"problem": "p1"}', "cannot read config file"),
    ("manifest", None, "cannot read manifest file"),
    ("manifest", b"\xff{}", "cannot read manifest file"),
    ("manifest", {**REPLAY, "seed": "abc"}, "manifest invalid at seed"),
    ("manifest", {**REPLAY, "seed": 1.5}, "manifest invalid at seed"),
    ("manifest", {**REPLAY, "seed": -1}, "manifest invalid at seed"),
    ("path_csv", None, "cannot read CSV file"),
    ("path_csv", b"t,q1\n0,0\n\xff,1\n", "cannot read CSV file"),
    ("path_csv", b"t,q1\n0,0\n1,1,2\n", "every row must have 2 cells"),
    ("path_csv", b"t,q1\n0,0,0\n1,1,1\n", "every row must have 2 cells"),
    ("path_csv", b"t,q1\n0,0\n1,x\n", "cannot read CSV file"),
    ("path_csv", b"t,q1\n", "expected at least two rows"),
    # read as t = 0, 0.5, 1, these rows once exited 0
    ("path_csv", b"t,q1\n0,0\n0.1,0.5\n1,1\n",
     "the t column must increase in equal steps"),
    ("problem", {**P1_SPEC, "O": [float("nan")]}, "number NaN is not finite"),
], ids=["config_directory", "config_not_utf8", "manifest_directory",
        "manifest_not_utf8", "manifest_seed_string", "manifest_seed_float",
        "manifest_seed_negative", "path_csv_directory", "path_csv_not_utf8",
        "path_csv_ragged", "path_csv_wide", "path_csv_non_numeric",
        "path_csv_no_rows", "path_csv_unequal_steps", "problem_nan"])
def test_unreadable_or_malformed_input_is_config_error(
        tmp_path, monkeypatch, capsys, role, content, message):
    """Every input file (config, manifest, problem file, path or control
    CSV) that cannot be read or parsed exits 2 with a message naming it."""
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "input"
    if content is None:
        target.mkdir()
    elif isinstance(content, bytes):
        target.write_bytes(content)
    else:
        target.write_text(json.dumps(content))
    if role == "config":
        argv = ["validate", "--config", str(target), "--seed", "0"]
    elif role == "manifest":
        argv = ["--replay", str(target)]
    elif role == "path_csv":
        argv = ["action", "--seed", "0", "--config", write_cfg(
            tmp_path, {"problem": "p1", "action": {"path_csv": "input"}})]
    else:
        argv = ["validate", "--seed", "0", "--config", write_cfg(
            tmp_path, {"problem": str(target)})]
    rc = cli.main(argv + ["--out", "out"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and message in err
    if "seed" not in message:           # the message names the file
        assert os.path.join(tmp_path, "input") in err or " input" in err


def test_tolerances_take_only_the_gates_verify_reads(tmp_path, capsys):
    """A misspelt tolerance is rejected rather than leaving the default
    gate in force; the four gates verify reads still validate."""
    cfg = write_cfg(tmp_path, {"problem": "p1",
                               "tolerances": {"laplace_gap": 0.5}})
    rc = cli.main(["validate", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config invalid at tolerances" in capsys.readouterr().err
    cli.validate_config({"problem": "p1", "tolerances": {
        "h_exponent_lo": 0.2, "h_exponent_hi": 0.8, "r_squared_min": 0.5,
        "laplace_rel_gap": 0.5}})


def test_validate_reports_clean_preset(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": "p1"})
    out = str(tmp_path / "out")
    assert cli.main(["validate", "--config", cfg,
                     "--seed", "0", "--out", out]) == 0
    rep = json.loads(Path(out, "validate.json").read_text())
    assert rep["passed"] is True
    assert rep["failures"] == []


def test_action_command_on_path_file(tmp_path):
    path_csv = str(tmp_path / "path.csv")
    t = np.linspace(0.0, 1.0, 33)
    write_path_csv(path_csv, t, t[:, None], prefix="q")
    cfg = write_cfg(tmp_path, {"problem": "p1",
                               "action": {"path_csv": path_csv}})
    out = str(tmp_path / "out")
    assert cli.main(["action", "--config", cfg,
                     "--seed", "0", "--out", out]) == 0
    res = json.loads(Path(out, "action.json").read_text())
    # unit friction and unit noise: both discretizations agree
    assert res["value_standard"] == pytest.approx(res["value_alt"], rel=1e-9)
    assert res["value_standard"] > 0
    assert os.path.exists(os.path.join(out, "segments.csv"))
    m = load_manifest(os.path.join(out, "manifest.json"))
    assert m["outputs"] == ["action.json", "segments.csv"]


@pytest.mark.parametrize("files, message", [
    ({"path.csv": "t,q1,q2\n0,0,0\n0.5,0.5,0.5\n1,1,1\n"},
     "path.csv: expected 1 value column(s) after t, got 2"),
    ({"path.csv": "t,q1\n0,0\n0.5,0.5\n1,1\n",
      "control.csv": "t,u1,u2\n0,1,1\n0.5,1,1\n1,1,1\n"},
     "control.csv: expected 1 value column(s) after t, got 2"),
], ids=["path_wider_than_d", "control_wider_than_r"])
def test_action_inputs_must_match_the_problem_width(
        tmp_path, monkeypatch, capsys, files, message):
    """On p1 (d = r = 1) a path needs one q column and a control one u
    column; a wider file is a config error, not an action of another
    problem."""
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    block = {"path_csv": "path.csv"}
    if "control.csv" in files:
        block["control_csv"] = "control.csv"
    cfg = write_cfg(tmp_path, {"problem": "p1", "action": block})
    rc = cli.main(["action", "--config", cfg, "--seed", "0", "--out", "out"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not Path("out", "action.json").exists()


def test_action_reads_the_path_quasipotential_writes(tmp_path):
    """A path CSV the program writes passes the equal-step t check, and
    its action is the quasipotential's value."""
    cfg = write_cfg(tmp_path, {"problem": "p1",
                               "quasipotential": {"q_end": [0.5], "N": 32}})
    qp = tmp_path / "qp"
    assert cli.main(["quasipotential", "--config", cfg,
                     "--seed", "0", "--out", str(qp)]) == 0
    cfg = write_cfg(tmp_path, {"problem": "p1", "action": {
        "path_csv": str(qp / "path.csv")}}, name="action.json")
    out = tmp_path / "out"
    assert cli.main(["action", "--config", cfg,
                     "--seed", "0", "--out", str(out)]) == 0
    value = json.loads((qp / "quasipotential.json").read_text())["value"]
    res = json.loads((out / "action.json").read_text())
    assert res["value_standard"] == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("problem, message", [
    ("probs/missing.json",
     "problem 'probs/missing.json' is neither an existing file nor a "
     "bundled preset (bundled presets: fk1d, front2d, kpp1d, kpp1d_cosc, "
     "p1, p1_tilted, p2, p3)"),
    ("p9", "unknown preset 'p9'"),
], ids=["missing_file", "unknown_name"])
def test_unresolvable_problem_is_named(tmp_path, monkeypatch, capsys,
                                       problem, message):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {"problem": problem, "seed": 0})
    assert cli.main(["validate", "--config", cfg, "--out", "out"]) == 2
    assert message in capsys.readouterr().err


def test_emit_plot_data_writes_tidy_csv(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", out, "--emit-plot-data"]) == 0
    with open(os.path.join(out, "plotdata.csv")) as fh:
        assert fh.readline().strip() == "series,x,y"
        assert fh.readline().startswith("path0_q1,")


def test_all_failure_sets_exit_code(tmp_path, monkeypatch, capsys):
    def fake_run_all(scale=1.0, workdir=None):
        return [CriterionResult(index=1, name="stub", passed=False,
                                detail="forced failure", runtime_s=0.0)]

    monkeypatch.setattr(strongdamp.acceptance, "run_all", fake_run_all)
    out = str(tmp_path / "out")
    rc = cli.main(["all", "--seed", "0", "--out", out])
    assert rc == 4
    rep = json.loads(Path(out, "acceptance_report.json").read_text())
    assert rep["passed"] is False
    assert rep["criteria"][0]["name"] == "stub"
    assert "FAIL" in capsys.readouterr().out
    # a failed run is replayable
    m = load_manifest(os.path.join(out, "manifest.json"))
    assert (m["command"], m["seed"]) == ("all", 0)
    assert m["outputs"] == ["acceptance_report.json"]


def test_all_success_exit_code(tmp_path, monkeypatch):
    def fake_run_all(scale=1.0, workdir=None):
        return [CriterionResult(index=2, name="stub", passed=True,
                                detail="ok", runtime_s=0.1)]

    monkeypatch.setattr(strongdamp.acceptance, "run_all", fake_run_all)
    out = str(tmp_path / "out")
    assert cli.main(["all", "--seed", "0", "--out", out]) == 0
    rep = json.loads(Path(out, "acceptance_report.json").read_text())
    assert rep["passed"] is True


def test_all_runs_only_the_listed_criteria(tmp_path, monkeypatch):
    """criteria: [2] runs criterion 2 alone, not all ten and a filter."""
    ran = []

    def stub(index):
        def criterion(scale):
            ran.append(index)
            return True, "ok", {}
        return f"stub {index}", criterion

    monkeypatch.setattr(strongdamp.acceptance, "CRITERIA",
                        tuple(stub(i) for i in range(1, 11)))
    cfg = write_cfg(tmp_path, {"problem": "p1", "all": {"criteria": [2]}})
    out = str(tmp_path / "out")
    assert cli.main(["all", "--config", cfg, "--seed", "0",
                     "--out", out]) == 0
    assert ran == [2]
    rep = json.loads(Path(out, "acceptance_report.json").read_text())
    assert [(c["index"], c["name"]) for c in rep["criteria"]] == [
        (2, "stub 2")]


def test_every_export_resolves():
    namespace = {}
    exec("from strongdamp import *", namespace)
    missing = [n for n in strongdamp.__all__ if n not in namespace]
    assert not missing


def test_threads_flag_is_accepted_and_changes_nothing(tmp_path,
                                                      monkeypatch):
    cfg = write_cfg(tmp_path, {
        "problem": "p2",
        "verify": {
            "h_scaling": {"eps_ladder": [0.2, 0.1, 0.05], "M": 8,
                          "T": 2e-4},
            "laplace": {"terminal_cost": "0.5",
                        "eps_ladder": [0.25, 0.125], "M": 8, "T": 0.2},
        }})
    digests = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"out{threads}")
        assert cli.main(["--threads", threads, "verify", "--config", cfg,
                         "--seed", "3", "--out", out,
                         "--threads", threads]) == 0
        digests.append(hash_tree(out))
    assert digests[0] and digests[0] == digests[1]

    def fake_run_all(scale=1.0, workdir=None):
        return [CriterionResult(index=1, name="stub", passed=True,
                                detail="ok", runtime_s=0.0)]

    monkeypatch.setattr(strongdamp.acceptance, "run_all", fake_run_all)
    assert cli.main(["all", "--threads", "4", "--seed", "0",
                     "--out", str(tmp_path / "all")]) == 0


def package_env():
    """Environment for a subprocess that imports the strongdamp under
    test, installed or not."""
    pkg_root = os.path.dirname(os.path.dirname(strongdamp.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (pkg_root, os.environ.get("PYTHONPATH")))))


def test_module_entry_point(tmp_path):
    env = package_env()
    proc = subprocess.run([sys.executable, "-m", "strongdamp.cli",
                           "--version"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    assert __version__ in proc.stdout

    cfg = write_cfg(tmp_path, {"problem": "p1", "seed": 2,
                               "out_dir": str(tmp_path / "out")})
    proc = subprocess.run([sys.executable, "-m", "strongdamp.cli",
                           "validate", "--config", cfg],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "wrote 1 artifact(s)" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    """Every scipy submodule is slow to import; the modules that use one
    import it inside the functions that call it, so a CLI process pays
    only for what its command runs."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, strongdamp.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exit_run_leaves_sparse_and_special_unloaded(tmp_path):
    """Only front's grid distance and the log-sum-exp reductions use
    scipy.sparse and scipy.special; an exit run loads neither."""
    cfg = write_cfg(tmp_path, {"problem": "p1",
                               "exit": {"eps_ladder": [0.5], "M": 4}})
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, strongdamp.cli; "
         "rc = strongdamp.cli.main(sys.argv[1:]); "
         "print(rc, sorted(m for m in sys.modules if m.startswith("
         "('scipy.sparse', 'scipy.special'))))",
         "exit", "--config", cfg, "--seed", "0",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
], ids=["unset", "caller_wins"])
def test_import_sets_one_blas_thread_by_default(preset, expected):
    env = package_env()
    for var in BLAS_VARS:
        env.pop(var, None)
    env.update(preset)
    proc = subprocess.run(
        [sys.executable, "-c", "import os, strongdamp; "
         f"print([os.environ.get(v) for v in {BLAS_VARS!r}])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(expected)
