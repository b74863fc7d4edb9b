"""Deterministic artifact emission.

Every file is written atomically (temp file + rename in the target
directory), floats are serialized with repr (shortest round-trip), JSON
keys are sorted, so a re-run with the same seed reproduces artifact
bytes exactly.  The manifest is the one file carrying timing, and
determinism checks exclude it.

Array tables are formatted from `ndarray.tolist()` rows, so each cell is
one repr of a Python float; a grid CSV formats each axis value once and
its values one x-row at a time.  A CSV is written a bounded chunk of lines
at a time, so no copy of a whole multi-megabyte table is ever held in
memory: the cost of a write is the formatting, not page faults on
throwaway buffers.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager, nullcontext
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError

MANIFEST_NAME = "manifest.json"
# lines joined and encoded per write by write_csv: tens of kB of CSV,
# under malloc's mmap threshold, so chunk buffers reuse heap memory
CHUNK_LINES = 1024
# deflate level of .gz output.  On 12 stored p2 trajectories (1 385 588
# bytes of CSV; one core of a 2-vCPU machine), level 9, GzipFile's
# default, writes 570 585 bytes in 0.21 s, level 6 573 965 bytes in
# 0.09 s and level 1 619 443 bytes in 0.016 s
GZIP_LEVEL = 6


@contextmanager
def atomic_file(path: str):
    """Binary file handle on a temp file in path's directory, renamed onto
    path when the block ends without an error and removed otherwise."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    with atomic_file(path) as fh:
        fh.write(data)


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
    """CSV of `rows`: each a sequence of cells (formatted by `fmt`) or a
    line already formatted (a str); gzip-compressed when path ends in .gz."""
    lines = chain([",".join(header)],
                  (row if isinstance(row, str) else ",".join(map(fmt, row))
                   for row in rows))
    # gzip's mtime and FNAME pinned so identical content gives identical
    # bytes; deflate's output does not depend on how its input is chunked
    with atomic_file(path) as raw, (
            gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0,
                          compresslevel=GZIP_LEVEL)
            if path.endswith(".gz") else nullcontext(raw)) as fh:
        while chunk := list(islice(lines, CHUNK_LINES)):
            chunk.append("")
            fh.write("\n".join(chunk).encode("utf-8"))


def float_lines(rows) -> Iterator[str]:
    """One CSV line per row of Python floats (`ndarray.tolist()` rows),
    each cell in `fmt`'s float format."""
    return (",".join(map(repr, row)) for row in rows)


@contextmanager
def reading(path: str, what: str):
    """Scope of a read of the file at path, `what` naming it: a file that is
    missing, unreadable (a directory, no permission) or malformed (not
    UTF-8, not JSON, a non-numeric CSV cell) raises a ConfigError naming
    the file."""
    try:
        yield
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} file {path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None


def read_csv(path: str):
    """Read a numeric CSV written by write_csv: (header, float array of
    shape (rows, len(header))); a row of another length is a ConfigError."""
    with reading(path, "CSV"), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
        if any(len(row) != len(header) for row in rows):
            raise ConfigError(f"CSV file {path}: every row must have "
                              f"{len(header)} cells, as its header has")
        return header, np.asarray(rows, dtype=float).reshape(
            len(rows), len(header))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _grid_lines(xs, ys, values) -> Iterator[str]:
    """x,y,value lines in row-major order; each axis value is formatted
    once and each x-row of values is formatted as it is written."""
    rys = [repr(y) for y in ys.tolist()]
    for rx, row in zip(map(repr, xs.tolist()), values):
        for ry, v in zip(rys, row.tolist()):
            yield rx + "," + ry + "," + repr(v)


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
        rows = float_lines(np.column_stack([xs, values]).tolist())
    elif d == 2:
        header = ["x", "y", "value"]
        xs = origin[0] + spacing[0] * np.arange(values.shape[0])
        ys = origin[1] + spacing[1] * np.arange(values.shape[1])
        rows = _grid_lines(xs, ys, values)
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


def read_path_csv(path: str, width: Optional[int] = None):
    """(times, points) from a CSV whose first column is t; ConfigError
    unless `width`, when given, is the number of value columns."""
    header, data = read_csv(path)
    if len(header) < 2 or header[0] != "t":
        raise ConfigError(f"{path}: expected columns t,<values...>")
    if data.shape[0] < 2:
        raise ConfigError(f"{path}: expected at least two rows")
    if width is not None and len(header) - 1 != width:
        raise ConfigError(f"{path}: expected {width} value column(s) after "
                          f"t, got {len(header) - 1}")
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


def read_json(path: str, what: str):
    """The JSON file at path, `what` naming it in a ConfigError when it
    cannot be read (see `reading`) or holds NaN, Infinity or -Infinity,
    which Python's json accepts but no config, manifest or problem number
    may be."""
    def reject_constant(name):
        raise ConfigError(f"{what} file {path}: number {name} is not finite")

    with reading(path, what), open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject_constant)


def load_manifest(path: str) -> dict:
    manifest = read_json(path, "manifest")
    if not isinstance(manifest, dict):
        raise ConfigError("manifest is not a JSON object")
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
