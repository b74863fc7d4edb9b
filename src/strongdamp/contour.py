"""Zero-level-set extraction on regular 2d grids (marching squares).

The 4-bit corner-sign case of every cell of ``values - level`` is built
with numpy in one pass; only the cells whose case holds a crossing (neither
all corners above nor all below) are visited in Python, in row-major order.
Crossing points are placed by linear interpolation along cell edges and the
crossing segments are chained into polylines by shared edge identity, so
closed loops come back closed.  Saddle cells are disambiguated by the
cell-center average.

The module also holds the package's polyline helpers, which import
nothing from the package: arc-length resampling, the point-in-polygon
test and interp_columns, the one column-wise linear interpolator.
"""

from __future__ import annotations

import numpy as np


def _edge_point(key, vals, xs, ys, level):
    kind, i, j = key
    if kind == "x":
        v0, v1 = vals[i, j], vals[i + 1, j]
        t = (level - v0) / (v1 - v0)
        return (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
    v0, v1 = vals[i, j], vals[i, j + 1]
    t = (level - v0) / (v1 - v0)
    return (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))


def contour_polylines(values, xs, ys, level: float = 0.0):
    """Level curves of values[i, j] sampled at (xs[i], ys[j]).

    Returns a list of (m, 2) arrays of curve points; loops repeat their
    first point at the end.
    """
    vals = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if vals.shape != (xs.size, ys.size):
        raise ValueError("values must have shape (len(xs), len(ys))")
    s = vals - level
    # nudge exact zeros off the level so every crossing is transversal
    tiny = 1e-12 * max(1.0, float(np.max(np.abs(s))) or 1.0)
    s = np.where(s == 0.0, tiny, s)

    # 4-bit case of every cell: corner bits (i,j), (i+1,j), (i+1,j+1), (i,j+1)
    pos = (s > 0).view(np.uint8)
    case = (pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2
            | pos[:-1, 1:] << 3)
    # only crossing cells reach Python, in row-major (i, then j) order
    ci, cj = np.nonzero((case != 0) & (case != 15))
    segments = []
    for i, j, c in zip(ci.tolist(), cj.tolist(), case[ci, cj].tolist()):
        bottom = ("x", i, j)
        top = ("x", i, j + 1)
        left = ("y", i, j)
        right = ("y", i + 1, j)
        if c in (1, 14):
            segments.append((left, bottom))
        elif c in (2, 13):
            segments.append((bottom, right))
        elif c in (3, 12):
            segments.append((left, right))
        elif c in (4, 11):
            segments.append((right, top))
        elif c in (6, 9):
            segments.append((bottom, top))
        elif c in (7, 8):
            segments.append((left, top))
        else:   # saddles 5 and 10
            center = 0.25 * (s[i, j] + s[i + 1, j]
                             + s[i + 1, j + 1] + s[i, j + 1])
            # join the diagonal pair that the center sign connects
            if (c == 5) != (center > 0):
                segments.append((left, bottom))
                segments.append((right, top))
            else:
                segments.append((left, top))
                segments.append((bottom, right))

    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    used = set()

    def walk(start):
        chain = [start]
        prev = None
        cur = start
        while True:
            nxt = None
            for cand in adj[cur]:
                if cand != prev and frozenset((cur, cand)) not in used:
                    nxt = cand
                    break
            if nxt is None:
                return chain
            used.add(frozenset((cur, nxt)))
            chain.append(nxt)
            if nxt == start:
                return chain
            prev, cur = cur, nxt

    polylines = []
    # open curves first so their tails are not consumed by loop walks
    for start in sorted(adj, key=repr):
        if len(adj[start]) == 1:
            chain = walk(start)
            if len(chain) > 1:
                polylines.append(chain)
    for start in sorted(adj, key=repr):
        chain = walk(start)
        if len(chain) > 1:
            polylines.append(chain)

    out = []
    for chain in polylines:
        pts = np.array([_edge_point(k, vals, xs, ys, level) for k in chain])
        out.append(pts)
    return out


def point_in_polygon(point, polygon: np.ndarray) -> bool:
    """Ray-casting test; polygon is an (m, 2) loop (closure optional)."""
    x, y = float(point[0]), float(point[1])
    px = polygon[:, 0]
    py = polygon[:, 1]
    n = len(polygon)
    inside = False
    for k in range(n - 1):
        x0, y0, x1, y1 = px[k], py[k], px[k + 1], py[k + 1]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) / (y1 - y0) * (x1 - x0)
            if xc > x:
                inside = not inside
    return inside


def arc_length_resample(points: np.ndarray, n: int) -> np.ndarray:
    """n points spaced evenly in arc length along a polyline."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0:
        return np.repeat(points[:1], n, axis=0)
    # drop the duplicated closure point from the sample range on loops
    closed = np.allclose(points[0], points[-1])
    targets = (np.linspace(0.0, total, n, endpoint=not closed)
               if closed else np.linspace(0.0, total, n))
    return interp_columns(targets, s, points)


def interp_columns(x, xp, fp) -> np.ndarray:
    """Each column of the table fp, sampled at xp, linearly interpolated
    onto x: an array of shape (len(x), fp.shape[1])."""
    return np.column_stack([np.interp(x, xp, col) for col in fp.T])
