"""End-to-end command line checks, in process via cli.main where possible."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import strongdamp
import strongdamp.acceptance
from strongdamp import __version__, cli
from strongdamp.acceptance import CriterionResult
from strongdamp.artifacts import hash_tree, load_manifest, write_path_csv


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


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


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": "p1", "simulte": {}})
    rc = cli.main(["validate", "--config", cfg,
                   "--seed", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config invalid" in capsys.readouterr().err


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


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    outs = [str(tmp_path / f"out{i}") for i in (0, 1)]
    for out in outs:
        assert cli.main(["simulate", "--config", cfg,
                         "--seed", "3", "--out", out]) == 0
    a, b = hash_tree(outs[0]), hash_tree(outs[1])
    assert a == b
    assert set(a) == {"traj_0000.csv", "traj_0001.csv"}


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


def test_validate_reports_clean_preset(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": "p1"})
    out = str(tmp_path / "out")
    assert cli.main(["validate", "--config", cfg,
                     "--seed", "0", "--out", out]) == 0
    rep = json.loads(open(os.path.join(out, "validate.json")).read())
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
    res = json.loads(open(os.path.join(out, "action.json")).read())
    # unit friction and unit noise: both discretizations agree
    assert res["value_standard"] == pytest.approx(res["value_alt"], rel=1e-9)
    assert res["value_standard"] > 0
    assert os.path.exists(os.path.join(out, "segments.csv"))
    m = load_manifest(os.path.join(out, "manifest.json"))
    assert m["outputs"] == ["action.json", "segments.csv"]


def test_emit_plot_data_writes_tidy_csv(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", out, "--emit-plot-data"]) == 0
    with open(os.path.join(out, "plotdata.csv")) as fh:
        assert fh.readline().strip() == "series,x,y"
        assert fh.readline().startswith("path0_q1,")


def test_all_failure_sets_exit_code(tmp_path, monkeypatch, capsys):
    def fake_run_all(scale=1.0, threads=1, workdir=None):
        return [CriterionResult(index=1, name="stub", passed=False,
                                detail="forced failure", runtime_s=0.0)]

    monkeypatch.setattr(strongdamp.acceptance, "run_all", fake_run_all)
    out = str(tmp_path / "out")
    rc = cli.main(["all", "--seed", "0", "--out", out])
    assert rc == 4
    rep = json.loads(open(os.path.join(out, "acceptance_report.json")).read())
    assert rep["passed"] is False
    assert rep["criteria"][0]["name"] == "stub"
    assert "FAIL" in capsys.readouterr().out


def test_all_success_exit_code(tmp_path, monkeypatch):
    def fake_run_all(scale=1.0, threads=1, workdir=None):
        return [CriterionResult(index=2, name="stub", passed=True,
                                detail="ok", runtime_s=0.1)]

    monkeypatch.setattr(strongdamp.acceptance, "run_all", fake_run_all)
    out = str(tmp_path / "out")
    assert cli.main(["all", "--seed", "0", "--out", out]) == 0
    rep = json.loads(open(os.path.join(out, "acceptance_report.json")).read())
    assert rep["passed"] is True


def test_module_entry_point(tmp_path):
    # the subprocesses import the strongdamp under test, installed or not
    pkg_root = os.path.dirname(os.path.dirname(strongdamp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (pkg_root, os.environ.get("PYTHONPATH")))))
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
