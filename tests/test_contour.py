import numpy as np
import pytest

from strongdamp.contour import contour_polylines


def reference_polylines(values, xs, ys, level=0.0):
    """Per-cell marching squares: every cell's case is computed in a Python
    double loop, then the segments are chained as in `contour_polylines`.
    The oracle the numpy case scan must reproduce bit for bit."""
    vals = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    s = vals - level
    tiny = 1e-12 * max(1.0, float(np.max(np.abs(s))) or 1.0)
    s = np.where(s == 0.0, tiny, s)

    pos = s > 0
    segments = []
    nx, ny = vals.shape
    for i in range(nx - 1):
        for j in range(ny - 1):
            c00 = pos[i, j]
            c10 = pos[i + 1, j]
            c11 = pos[i + 1, j + 1]
            c01 = pos[i, j + 1]
            case = (c00 | (c10 << 1) | (c11 << 2) | (c01 << 3))
            if case in (0, 15):
                continue
            bottom = ("x", i, j)
            top = ("x", i, j + 1)
            left = ("y", i, j)
            right = ("y", i + 1, j)
            if case in (1, 14):
                segments.append((left, bottom))
            elif case in (2, 13):
                segments.append((bottom, right))
            elif case in (3, 12):
                segments.append((left, right))
            elif case in (4, 11):
                segments.append((right, top))
            elif case in (6, 9):
                segments.append((bottom, top))
            elif case in (7, 8):
                segments.append((left, top))
            elif case in (5, 10):
                center = 0.25 * (s[i, j] + s[i + 1, j]
                                 + s[i + 1, j + 1] + s[i, j + 1])
                if (case == 5) != (center > 0):
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

    def edge(a, b):
        return (min(a, b, key=repr), max(a, b, key=repr))

    def walk(start):
        chain = [start]
        prev = None
        cur = start
        while True:
            nxt = None
            for cand in adj[cur]:
                if cand != prev and edge(cur, cand) not in used:
                    nxt = cand
                    break
            if nxt is None:
                return chain
            used.add(edge(cur, nxt))
            chain.append(nxt)
            if nxt == start:
                return chain
            prev, cur = cur, nxt

    chains = []
    for start in sorted(adj, key=repr):
        if len(adj[start]) == 1:
            chain = walk(start)
            if len(chain) > 1:
                chains.append(chain)
    for start in sorted(adj, key=repr):
        chain = walk(start)
        if len(chain) > 1:
            chains.append(chain)

    def point(key):
        kind, i, j = key
        if kind == "x":
            v0, v1 = vals[i, j], vals[i + 1, j]
            t = (level - v0) / (v1 - v0)
            return (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
        v0, v1 = vals[i, j], vals[i, j + 1]
        t = (level - v0) / (v1 - v0)
        return (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))

    return [np.array([point(k) for k in chain]) for chain in chains]


def cell_cases(values, level=0.0):
    s = np.asarray(values, dtype=float) - level
    pos = (s > 0).astype(int)
    return (pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2
            | pos[:-1, 1:] << 3)


def assert_same_polylines(values, xs, ys, level=0.0):
    got = contour_polylines(values, xs, ys, level)
    want = reference_polylines(values, xs, ys, level)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return got


def is_closed(pl):
    return np.array_equal(pl[0], pl[-1])


def grid(nx, ny, box=(-1.0, 1.0, -1.0, 1.0)):
    xs = np.linspace(box[0], box[1], nx)
    ys = np.linspace(box[2], box[3], ny)
    return xs, ys, *np.meshgrid(xs, ys, indexing="ij")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_fields_match_per_cell_scan(seed):
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(20, 45, size=2)
    xs = np.cumsum(rng.uniform(0.5, 1.5, nx))
    ys = np.cumsum(rng.uniform(0.5, 1.5, ny))
    vals = rng.standard_normal((nx, ny))
    cases = cell_cases(vals, 0.3)
    # both saddle orientations occur, so both center-rule branches run
    assert np.any(cases == 5) and np.any(cases == 10)
    for level in (0.0, 0.3):
        assert_same_polylines(vals, xs, ys, level)


def test_exact_zeros_on_nodes_match_per_cell_scan():
    xs, ys, X, Y = grid(21, 17)
    # integer-valued field: many nodes sit exactly on the level
    vals = np.round(4 * np.sin(3 * X) * np.cos(2 * Y))
    assert np.count_nonzero(vals == 0.0) > 20
    polys = assert_same_polylines(vals, xs, ys, 0.0)
    assert polys
    for level in (1.0, -2.0):
        assert np.any(vals == level)
        assert_same_polylines(vals, xs, ys, level)


def test_curve_leaving_box_comes_first():
    xs, ys, X, Y = grid(33, 29, box=(-1.0, 1.0, -1.0, 1.2))
    # an open line across the box and a closed loop away from it
    line = X + 0.3 * Y - 0.55
    loop = (X + 0.4) ** 2 + (Y + 0.3) ** 2 - 0.2 ** 2
    vals = line * loop
    polys = assert_same_polylines(vals, xs, ys)
    assert len(polys) == 2
    assert not is_closed(polys[0])
    assert is_closed(polys[1])
    ends = polys[0][[0, -1]]
    on_border = (np.isclose(ends[:, 0], xs[0]) | np.isclose(ends[:, 0], xs[-1])
                 | np.isclose(ends[:, 1], ys[0])
                 | np.isclose(ends[:, 1], ys[-1]))
    assert np.all(on_border)


def test_two_disjoint_loops():
    xs, ys, X, Y = grid(41, 41)
    vals = np.minimum((X - 0.45) ** 2 + (Y - 0.1) ** 2 - 0.3 ** 2,
                      (X + 0.5) ** 2 + (Y + 0.2) ** 2 - 0.25 ** 2)
    polys = assert_same_polylines(vals, xs, ys)
    assert len(polys) == 2
    assert all(is_closed(pl) for pl in polys)
    centers = sorted(pl[:-1].mean(axis=0)[0] for pl in polys)
    np.testing.assert_allclose(centers, [-0.5, 0.45], atol=0.02)


def test_non_square_grid_keeps_axes():
    xs, ys, X, Y = grid(23, 51, box=(-1.0, 1.0, -2.0, 1.0))
    vals = X ** 2 / 0.5 ** 2 + (Y + 0.5) ** 2 / 1.2 ** 2 - 1.0
    polys = assert_same_polylines(vals, xs, ys)
    assert len(polys) == 1
    pts = polys[0]
    # the ellipse is tall in y: a transposed axis would make it wide
    assert np.ptp(pts[:, 0]) == pytest.approx(1.0, abs=0.02)
    assert np.ptp(pts[:, 1]) == pytest.approx(2.4, abs=0.02)


@pytest.mark.parametrize("n", [41, 81, 161])
def test_circle_points_within_h_squared(n):
    r = 0.63
    xs, ys, X, Y = grid(n, n)
    cx, cy = 0.013, -0.007
    vals = (X - cx) ** 2 + (Y - cy) ** 2 - r ** 2
    polys = contour_polylines(vals, xs, ys)
    assert len(polys) == 1
    loop = polys[0]
    assert np.array_equal(loop[0], loop[-1])
    assert len(np.unique(loop[:-1], axis=0)) == len(loop) - 1
    h = xs[1] - xs[0]
    # along a cell edge the field is a parabola of curvature 2 and its
    # chord lies within h^2/4 of it, so |rho^2 - r^2| <= h^2/4
    rho = np.hypot(loop[:, 0] - cx, loop[:, 1] - cy)
    assert np.max(np.abs(rho - r)) <= h ** 2 / (4 * r)
