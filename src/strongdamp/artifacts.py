"""Deterministic artifact emission.

Every file is written atomically (temp file + rename in the target
directory), floats are serialized with repr (shortest round-trip), JSON
keys are sorted, so a re-run with the same seed reproduces artifact
bytes exactly.  The manifest is the one file carrying timing, and
determinism checks exclude it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError

MANIFEST_NAME = "manifest.json"


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _sanitize(obj):
    """JSON-safe deep copy: numpy scalars and arrays unwrapped, non-finite
    floats spelled out as strings (strict JSON has no NaN literal)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_json(path: str, obj) -> None:
    atomic_write_text(path, canonical_json(obj))


def fmt(v) -> str:
    """Canonical cell format: shortest round-trip repr for floats."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: str, header: Sequence[str], rows: Iterable) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str):
    """Read a numeric CSV written by write_csv: (header, float array)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    return header, np.asarray(data, dtype=float)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_grid(path: str, field) -> None:
    """Grid values as CSV (x[,y],value) plus a .meta.json sidecar carrying
    origin, spacing, shape, and the field kind."""
    origin = np.atleast_1d(np.asarray(field.origin, dtype=float))
    values = np.asarray(field.values, dtype=float)
    d = origin.size
    spacing = np.broadcast_to(
        np.atleast_1d(np.asarray(field.spacing, dtype=float)), (d,))
    if d == 1:
        header = ["x", "value"]
        xs = origin[0] + spacing[0] * np.arange(values.shape[0])
        rows = ([x, v] for x, v in zip(xs, values))
    elif d == 2:
        header = ["x", "y", "value"]
        xs = origin[0] + spacing[0] * np.arange(values.shape[0])
        ys = origin[1] + spacing[1] * np.arange(values.shape[1])
        rows = ([xs[i], ys[j], values[i, j]]
                for i in range(values.shape[0])
                for j in range(values.shape[1]))
    else:
        raise ConfigError("grid dumps support d <= 2")
    write_csv(path, header, rows)
    stem = path[:-4] if path.endswith(".csv") else path
    write_json(stem + ".meta.json", {
        "origin": origin, "spacing": spacing,
        "shape": list(values.shape), "kind": getattr(field, "kind", ""),
    })


def write_path_csv(path: str, times: np.ndarray, points: np.ndarray,
                   prefix: str = "f") -> None:
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    header = ["t"] + [f"{prefix}{i+1}" for i in range(d)]
    rows = ([t, *row] for t, row in zip(times, pts))
    write_csv(path, header, rows)


def read_path_csv(path: str):
    """(times, points) from a CSV whose first column is t."""
    header, data = read_csv(path)
    if len(header) < 2 or header[0] != "t":
        raise ConfigError(f"{path}: expected columns t,<values...>")
    return data[:, 0], data[:, 1:]


def versions() -> dict:
    import platform

    import scipy

    from . import __version__
    return {
        "strongdamp": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def write_manifest(out_dir: str, command: str, config: dict, seed: int,
                   outputs: Sequence[str], wall_time_s: float) -> str:
    config_text = canonical_json(config)
    manifest = {
        "command": command,
        "config": json.loads(config_text),
        "config_sha256": sha256_bytes(config_text.encode()),
        "seed": int(seed),
        "outputs": sorted(outputs),
        "versions": versions(),
        "wall_time_s": wall_time_s,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(out_dir, MANIFEST_NAME)
    write_json(path, manifest)
    return path


def load_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    for key in ("command", "config", "seed"):
        if key not in manifest:
            raise ConfigError(f"manifest lacks required key {key!r}")
    return manifest


def hash_tree(root: str, exclude=(MANIFEST_NAME,)) -> dict:
    """Relative path -> sha256 for every file under root (excluded names
    skipped); the comparison map for byte-determinism checks."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name in exclude:
                continue
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = sha256_file(full)
    return out
