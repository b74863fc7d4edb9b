import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strongdamp.artifacts import (CHUNK_LINES, MANIFEST_NAME,
                                  canonical_json, fmt, hash_tree,
                                  load_manifest, read_csv,
                                  read_path_csv, sha256_bytes, write_csv,
                                  write_grid, write_json, write_manifest,
                                  write_path_csv)
from strongdamp.errors import ConfigError
from strongdamp.front import GridField


def test_canonical_json_sorts_and_terminates():
    a = canonical_json({"b": 1, "a": 2})
    b = canonical_json({"a": 2, "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_canonical_json_unwraps_numpy():
    s = canonical_json({
        "i": np.int64(3),
        "x": np.float64(0.5),
        "flag": np.bool_(True),
        "arr": np.array([[1.0, 2.0]]),
    })
    obj = json.loads(s)
    assert obj == {"i": 3, "x": 0.5, "flag": True, "arr": [[1.0, 2.0]]}


def test_canonical_json_spells_out_nonfinite():
    obj = json.loads(canonical_json({"a": np.nan, "b": np.inf, "c": -np.inf}))
    assert obj == {"a": "nan", "b": "inf", "c": "-inf"}


def test_fmt_booleans_and_ints():
    assert fmt(True) == "1"
    assert fmt(np.bool_(False)) == "0"
    assert fmt(np.int32(-7)) == "-7"
    assert fmt("raw") == "raw"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_floats(x):
    assert float(fmt(x)) == x


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "table.csv")
    rows = [[0.1, -2.0], [1.0 / 3.0, 5e-300]]
    write_csv(path, ["a", "b"], rows)
    header, data = read_csv(path)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(data, np.asarray(rows))


@pytest.mark.parametrize("n_rows", [0, CHUNK_LINES - 1, CHUNK_LINES,
                                    2 * CHUNK_LINES + 1])
def test_csv_bytes_across_chunk_boundaries(tmp_path, n_rows):
    rows = [[i / 7.0, "s", i] for i in range(n_rows)]
    path = str(tmp_path / "table.csv")
    write_csv(path, ["a", "b", "c"], rows)
    lines = ["a,b,c"] + [f"{fmt(a)},{b},{c}" for a, b, c in rows]
    assert open(path, "rb").read() == ("\n".join(lines) + "\n").encode()


def test_csv_row_error_leaves_no_file(tmp_path):
    def rows():
        yield from ([float(i)] for i in range(2 * CHUNK_LINES))
        raise RuntimeError("row failed")

    path = tmp_path / "table.csv"
    with pytest.raises(RuntimeError, match="row failed"):
        write_csv(str(path), ["a"], rows())
    assert os.listdir(tmp_path) == []


def test_path_csv_roundtrip(tmp_path):
    path = str(tmp_path / "traj.csv")
    t = np.linspace(0, 1, 5)
    pts = np.arange(10.0).reshape(5, 2)
    write_path_csv(path, t, pts, prefix="q")
    with open(path) as fh:
        assert fh.readline().strip() == "t,q1,q2"
    t2, pts2 = read_path_csv(path)
    np.testing.assert_array_equal(t2, t)
    np.testing.assert_array_equal(pts2, pts)


def test_path_csv_requires_time_column(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_csv(path, ["x", "y"], [[0.0, 1.0]])
    with pytest.raises(ConfigError, match="expected columns t"):
        read_path_csv(path)


def test_grid_dump_1d_with_sidecar(tmp_path):
    path = str(tmp_path / "field.csv")
    field = GridField(origin=-1.0, spacing=0.5, values=np.array([3.0, 4.0, 5.0]),
                      kind="rho")
    write_grid(path, field)
    header, data = read_csv(path)
    assert header == ["x", "value"]
    np.testing.assert_allclose(data[:, 0], [-1.0, -0.5, 0.0])
    np.testing.assert_array_equal(data[:, 1], [3.0, 4.0, 5.0])
    meta = json.loads(open(str(tmp_path / "field.meta.json")).read())
    assert meta["shape"] == [3]
    assert meta["kind"] == "rho"
    assert meta["spacing"] == [0.5]


def test_grid_dump_2d_row_major(tmp_path):
    path = str(tmp_path / "field2.csv")
    vals = np.arange(6.0).reshape(2, 3)
    field = GridField(origin=[0.0, 10.0], spacing=[1.0, 2.0], values=vals,
                      kind="value")
    write_grid(path, field)
    header, data = read_csv(path)
    assert header == ["x", "y", "value"]
    assert data.shape == (6, 3)
    np.testing.assert_array_equal(data[:, 2], np.arange(6.0))
    np.testing.assert_array_equal(data[0, :2], [0.0, 10.0])
    np.testing.assert_array_equal(data[-1, :2], [1.0, 14.0])


def reference_grid_csv(field) -> bytes:
    """Grid CSV with every cell formatted by `fmt`, node by node."""
    origin = np.atleast_1d(np.asarray(field.origin, dtype=float))
    spacing = np.broadcast_to(
        np.atleast_1d(np.asarray(field.spacing, dtype=float)), origin.shape)
    values = np.asarray(field.values, dtype=float)
    axes = [origin[k] + spacing[k] * np.arange(values.shape[k])
            for k in range(origin.size)]
    if origin.size == 1:
        lines = ["x,value"] + [f"{fmt(x)},{fmt(v)}"
                               for x, v in zip(axes[0], values)]
    else:
        lines = ["x,y,value"] + [
            f"{fmt(axes[0][i])},{fmt(axes[1][j])},{fmt(values[i, j])}"
            for i in range(values.shape[0]) for j in range(values.shape[1])]
    return ("\n".join(lines) + "\n").encode()


def special_values(shape, seed):
    vals = np.random.default_rng(seed).standard_normal(shape) * 1e3
    flat = vals.reshape(-1)
    flat[[1, 5, 7, 11]] = [-0.0, np.inf, -np.inf, np.nan]
    return vals


@pytest.mark.parametrize("origin, spacing, shape", [
    (-2.48, 0.02, (251,)),
    ([-2.5, -2.48], [0.02, 0.02], (251, 13)),
    ([0.1, -3.0], [0.3, 0.07], (7, 19)),
])
def test_grid_dump_matches_per_cell_fmt(tmp_path, origin, spacing, shape):
    field = GridField(origin=origin, spacing=spacing,
                      values=special_values(shape, len(shape)), kind="value")
    path = str(tmp_path / "field.csv")
    write_grid(path, field)
    assert open(path, "rb").read() == reference_grid_csv(field)


def test_grid_dump_rejects_3d(tmp_path):
    field = GridField(origin=[0.0, 0.0, 0.0], spacing=0.1,
                      values=np.zeros((2, 2, 2)), kind="value")
    with pytest.raises(ConfigError, match="d <= 2"):
        write_grid(str(tmp_path / "field3.csv"), field)


def test_manifest_roundtrip(tmp_path):
    out = str(tmp_path)
    cfg = {"problem": "p1", "simulate": {"eps": 0.25}}
    path = write_manifest(out, "simulate", cfg, 7,
                          ["b.csv", "a.csv"], wall_time_s=1.5)
    assert os.path.basename(path) == MANIFEST_NAME
    m = load_manifest(path)
    assert m["command"] == "simulate"
    assert m["seed"] == 7
    assert m["config"] == cfg
    assert m["outputs"] == ["a.csv", "b.csv"]
    assert m["config_sha256"] == sha256_bytes(canonical_json(cfg).encode())
    assert set(m["versions"]) >= {"strongdamp", "numpy", "scipy", "python"}


def test_manifest_missing_key_rejected(tmp_path):
    path = str(tmp_path / "manifest.json")
    write_json(path, {"command": "simulate", "config": {}})
    with pytest.raises(ConfigError, match="seed"):
        load_manifest(path)


def test_hash_tree_skips_manifest_and_recurses(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.csv").write_text("t,q1\n0.0,1.0\n")
    (tmp_path / "sub" / "b.json").write_text("{}\n")
    (tmp_path / MANIFEST_NAME).write_text("{\"wall_time_s\": 3}\n")
    tree = hash_tree(str(tmp_path))
    assert set(tree) == {"a.csv", os.path.join("sub", "b.json")}
    (tmp_path / MANIFEST_NAME).write_text("{\"wall_time_s\": 99}\n")
    assert hash_tree(str(tmp_path)) == tree
    (tmp_path / "a.csv").write_text("t,q1\n0.0,2.0\n")
    assert hash_tree(str(tmp_path)) != tree


def test_write_json_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.json")
    write_json(path, {"x": 1})
    write_json(path, {"x": 2})
    assert json.loads(open(path).read()) == {"x": 2}
    assert sorted(os.listdir(tmp_path)) == ["out.json"]
