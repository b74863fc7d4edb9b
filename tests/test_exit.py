from dataclasses import fields
from functools import partial

import numpy as np
import pytest

import strongdamp.exit
from conftest import noise_row
from strongdamp.errors import ConfigError, NumericalError
from strongdamp.exit import (DEFAULT_CHUNK, FIRST_DRAW, ExitStats,
                             _exit_kernel, _rung_stats, default_max_steps,
                             exit_location_histogram, exit_scaling)
from strongdamp.expr import EvalDomainError
from strongdamp.fields import load_preset, load_problem
from strongdamp.sde import NoisePath, SimParams, default_step, \
    simulate_inertial


P1 = load_preset("p1")

# outward drift with near-zero noise: exit from (-1, 1) is deterministic
OUTWARD = load_problem({
    "d": 1, "r": 1, "b": ["q1"], "sigma": [["1e-8"]], "alpha": "1",
    "alpha0": 1.0, "G": "q1^2 - 1", "O": [0.0], "box": [[-2.0, 2.0]],
})


def outward_exit_time(eps, q0):
    """Exact exit time of eps^2 q'' = q - q' from q0 at rest.

    The growing mode has rate s+ solving eps^2 s^2 + s - 1 = 0; the
    rest start projects onto it with weight -s_- / (s_+ - s_-)."""
    disc = np.sqrt(1 + 4 * eps**2)
    sp = (-1 + disc) / (2 * eps**2)
    sm = (-1 - disc) / (2 * eps**2)
    amp = q0 * (-sm) / (sp - sm)
    return np.log(1.0 / amp) / sp


def exit_one(p, eps, q0=None, p0=None, seed=0, *, h=None,
             scheme="exponential", max_steps=None):
    """(tau, exit point, timed out) of the kernel on one row, started at q0
    (default O) with original-scale momentum p0, on stream (seed, 0)."""
    q0 = p.O if q0 is None else np.asarray(q0, dtype=float)
    p0 = np.zeros(p.d) if p0 is None else np.asarray(p0, dtype=float)
    h = default_step(p, eps) if h is None else h
    cap = default_max_steps(eps) if max_steps is None else max_steps
    tau, pts, out = _exit_kernel(p, eps, h, scheme, q0[None], (p0 / eps)[None],
                                 seed, [0], cap)
    return tau[0], pts[0], out[0]


def test_deterministic_exit_time():
    tau, pt, timeout = exit_one(OUTWARD, eps=0.2, q0=[0.5], seed=0)
    assert not timeout
    assert tau == pytest.approx(outward_exit_time(0.2, 0.5), abs=1e-2)
    assert pt[0] == pytest.approx(1.0, abs=1e-2)


def test_start_outside_returns_zero():
    tau, pt, timeout = exit_one(P1, eps=0.2, q0=[1.5], seed=0)
    assert tau == 0.0 and not timeout
    np.testing.assert_array_equal(pt, [1.5])


def test_timeout_flagged():
    assert exit_one(P1, eps=0.1, q0=[0.0], seed=0, max_steps=50)[2]


def test_scaling_ladder_validation():
    with pytest.raises(ConfigError):
        exit_scaling(P1, [0.2, 0.3], M=4, seed=0)
    with pytest.raises(ConfigError):
        exit_scaling(P1, [], M=4, seed=0)
    with pytest.raises(ConfigError, match="eps must lie"):
        exit_scaling(P1, [1.5], M=4, seed=0)
    with pytest.raises(ConfigError, match="eps must lie"):
        exit_scaling(P1, [0.5, 0.0], M=4, seed=0)


@pytest.mark.parametrize("preset", ["p1", "p2"])
@pytest.mark.parametrize("scheme", ["exponential", "euler"])
def test_exit_kernel_follows_simulator(preset, scheme):
    """The kernel's row on stream (5, 0) draws the numbers of
    noise_row(5, 0, ...), and the kernel and simulate_inertial
    share one step: the crossing rebuilt from the stored path is
    bit-identical."""
    p = load_preset(preset)
    eps, steps = 0.5, 5000
    h = default_step(p, eps)
    noise = noise_row(5, 0, steps, 1, h)
    q0, p0 = np.array([0.3]), np.array([0.2])
    tau, pt, timeout = exit_one(p, eps, q0=q0, p0=p0, seed=5, h=h,
                                scheme=scheme, max_steps=steps)
    tr = simulate_inertial(p, SimParams(eps=eps, T=steps * h, h=h,
                                        scheme=scheme), q0, p0, noise)
    phi = p.eval_phi(tr.q)
    n = int(np.argmax(phi >= 0)) - 1
    assert n >= 0 and not timeout
    frac = phi[n] / (phi[n] - phi[n + 1])
    assert tau == (n + frac) * h
    assert pt[0] == tr.q[n, 0] + frac * (tr.q[n + 1, 0] - tr.q[n, 0])


def batched_case(preset, eps, steps, M, chunk):
    rows = "" if M == 32 else f"-{M}rows"
    return pytest.param(preset, eps, steps, M, chunk,
                        id=f"{preset}-{eps}-{steps}{rows}-{chunk}")


@pytest.mark.parametrize("preset, eps, steps, M, chunk", [
    batched_case(*case, chunk)
    for case in [("p2", 0.8, 2000, 32), ("p3", 0.45, 1000, 32)]
    for chunk in [1, 7, 300, DEFAULT_CHUNK]] + [
    batched_case("p3", 0.45, 1000, 300, chunk)
    for chunk in [7, DEFAULT_CHUNK]])
def test_batched_kernel_follows_simulator(preset, eps, steps, M, chunk):
    """M rows through the kernel against crossings rebuilt from stored
    paths on generate_batch noise with the same stream ids.  The rows exit
    over hundreds to ~1600 steps, so the kernel's piecewise noise draws,
    its compaction on exit and its index from state rows to noise rows
    all have to keep each row's own noise and step, bit for bit.  300 rows
    are more than one DRAW_ROWS block."""
    p = load_preset(preset)
    h = default_step(p, eps)
    seed = 11
    ids = list(range(40, 40 + M))
    q0 = np.broadcast_to(p.O, (M, p.d)).copy()
    p0 = np.zeros((M, p.d))
    tau, pts, out = _exit_kernel(p, eps, h, "exponential", q0, p0 / eps,
                                 seed, ids, steps, chunk_steps=chunk)
    noise = NoisePath.generate_batch(seed, ids, steps, p.r, h)
    tr = simulate_inertial(p, SimParams(eps=eps, T=steps * h, h=h), q0, p0,
                           noise)
    phi = p.eval_phi(tr.q)
    assert np.all(np.any(phi >= 0, axis=1)) and not np.any(out)
    rows = np.arange(M)
    n = np.argmax(phi >= 0, axis=1) - 1
    assert np.all(n >= 0) and n.max() > FIRST_DRAW
    frac = phi[rows, n] / (phi[rows, n] - phi[rows, n + 1])
    np.testing.assert_array_equal(tau, (n + frac) * h)
    q_n, q_n1 = tr.q[rows, n], tr.q[rows, n + 1]
    np.testing.assert_array_equal(pts, q_n + frac[:, None] * (q_n1 - q_n))


def rung_alone(p, eps, j, M, seed, p0, *, h=None, scheme="exponential",
               max_steps=None):
    """Stats of rung j of exit_scaling's ladder run by the kernel alone,
    on stream ids j*M + i."""
    h = default_step(p, eps) if h is None else h
    cap = default_max_steps(eps) if max_steps is None else max_steps
    q0 = np.broadcast_to(p.O, (M, p.d))
    v0 = np.broadcast_to(p0 / eps, (M, p.d))
    return _rung_stats(eps, *_exit_kernel(
        p, eps, h, scheme, q0, v0, seed, range(j * M, (j + 1) * M), cap))


def assert_same_stats(got, want):
    for f in fields(ExitStats):
        a = np.asarray(getattr(got, f.name))
        b = np.asarray(getattr(want, f.name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name


@pytest.mark.parametrize("chunk", [1, 7, DEFAULT_CHUNK])
@pytest.mark.parametrize("preset, ladder, scheme, h", [
    ("p1", (0.55, 0.5, 0.45), "exponential", None),
    ("p2", (0.8, 0.7), "exponential", None),
    ("p3", (0.5, 0.45), "exponential", None),
    ("p1", (0.55, 0.45), "euler", 1e-2),
], ids=["p1", "p2", "p3", "p1_euler"])
def test_ladder_rungs_match_the_kernel_alone(preset, ladder, scheme, h,
                                             chunk, monkeypatch):
    """exit_scaling runs every rung's rows in one kernel call, each row on
    its rung's eps, step and cap; rung by rung it returns, bit for bit,
    what the kernel returns on that rung alone, whatever the chunk."""
    p = load_preset(preset)
    M, seed, p0 = 12, 3, np.full(p.d, 0.1)
    monkeypatch.setattr(strongdamp.exit, "_exit_kernel",
                        partial(_exit_kernel, chunk_steps=chunk))
    sc = exit_scaling(p, ladder, M, seed, p0=p0, h=h, scheme=scheme)
    for j, eps in enumerate(np.asarray(ladder)):
        assert_same_stats(sc.stats[j], rung_alone(
            p, eps, j, M, seed, p0, h=h, scheme=scheme))
    assert all(s.n_samples == M for s in sc.stats)


@pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
def test_each_row_times_out_at_its_own_cap(chunk):
    """Rows of one call with caps 300 and 20 000, where about half the
    rows under the small cap exit before it: each half matches the kernel
    run alone at its cap, so no chunk runs a row past its cap."""
    M, eps = 8, 0.4
    h = default_step(P1, eps)
    q0, v0 = np.zeros((2 * M, 1)), np.zeros((2 * M, 1))
    caps = np.repeat([300, 20_000], M)
    tau, pts, out = _exit_kernel(P1, eps, h, "exponential", q0, v0, 9,
                                 range(2 * M), caps, chunk_steps=chunk)
    for j, cap in enumerate((300, 20_000)):
        want = _exit_kernel(P1, eps, h, "exponential", q0[:M], v0[:M], 9,
                            range(j * M, (j + 1) * M), cap)
        half = slice(j * M, (j + 1) * M)
        for got, exp in zip((tau[half], pts[half], out[half]), want):
            np.testing.assert_array_equal(got, exp)
    assert 0 < out[:M].sum() < M and not out[M:].any()
    assert np.all(tau[:M][~out[:M]] <= 300 * h)


def test_drift_leaving_its_domain_names_the_subexpression():
    """The drift is defined only for q1 < 2; the path reaches q1 = 2 after
    some hundreds of steps, inside the exit domain |q1| < 3."""
    p = load_problem({
        "d": 1, "r": 1, "b": ["2 + 0.001*log(2 - q1)"], "sigma": [["0.1"]],
        "alpha": "1", "alpha0": 1.0, "G": "q1^2 - 9", "O": [0.0],
        "box": [[-3.0, 3.0]],
    })
    with pytest.raises(EvalDomainError, match=r"'log\(2 - q1\)'"):
        exit_one(p, eps=0.15, seed=2)


def test_domain_function_leaving_its_domain_names_the_subexpression():
    """phi = sqrt(1.5 - q1) - 2 stays negative up to q1 = 1.5, where its
    square root leaves its domain; the drift takes the path there within
    a few dozen steps, and phi's re-run on the walker names it."""
    p = load_problem({
        "d": 1, "r": 1, "b": ["2"], "sigma": [["0.1"]], "alpha": "1",
        "alpha0": 1.0, "G": "sqrt(1.5 - q1) - 2", "O": [0.0],
        "box": [[-3.0, 3.0]],
    })
    with pytest.raises(EvalDomainError, match=r"'sqrt\(1.5 - q1\)'"):
        exit_one(p, eps=0.5, seed=2)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_domain_function_is_numerical_error():
    """phi = -exp(q1) overflows to -inf without crossing zero, once the
    path passes q1 = 710 after ~700 steps."""
    p = load_problem({
        "d": 1, "r": 1, "b": ["20"], "sigma": [["0.1"]], "alpha": "1",
        "alpha0": 1.0, "G": "-exp(q1)", "O": [0.0], "box": [[-1.0, 1.0]],
    })
    with pytest.raises(NumericalError, match="non-finite"):
        exit_one(p, eps=0.5, seed=2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_invalid_step_arithmetic_is_numerical_error():
    """From q1 = 1e103 the cubic drift overflows to -inf, and the next step
    adds -inf and +inf inside the velocity update, not inside a field.
    phi = tanh(q1)^2 - 2 never crosses, so the NaN that follows reaches
    the kernel's finiteness check, and the stored path's end check, as a
    NumericalError rather than the trap's FloatingPointError."""
    p = load_problem({
        "d": 1, "r": 1, "b": ["-q1^3"], "sigma": [["1"]], "alpha": "1",
        "alpha0": 1.0, "G": "tanh(q1)^2 - 2", "O": [0.0],
        "box": [[-2.0, 2.0]],
    })
    eps, q0 = 0.5, np.array([1e103])
    with pytest.raises(NumericalError, match="non-finite"):
        exit_one(p, eps, q0=q0, seed=1)
    h = default_step(p, eps)
    noise = noise_row(1, 0, 10, 1, h)
    with pytest.raises(NumericalError, match="non-finite"):
        simulate_inertial(p, SimParams(eps=eps, T=10 * h, h=h), q0,
                          np.zeros(1), noise)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infinite_crossing_is_numerical_error():
    """The drift q1^400 overflows at q1 = 10, so the first step lands at
    q1 = inf and phi = q1 - 20 crosses to +inf: that crossing has no
    place inside the step and ends in NumericalError."""
    p = load_problem({
        "d": 1, "r": 1, "b": ["q1^400"], "sigma": [["1"]], "alpha": "1",
        "alpha0": 1.0, "G": "q1 - 20", "O": [0.0], "box": [[-2.0, 2.0]],
    })
    with pytest.raises(NumericalError, match="non-finite"):
        exit_one(p, 0.5, q0=[10.0], seed=1)


def test_single_rung_limit_is_its_own_elm():
    sc = exit_scaling(OUTWARD, [0.25], M=3, seed=1, q0=[0.5])
    assert sc.limit == pytest.approx(sc.stats[0].eps_log_mean)
    assert np.isnan(sc.slope)
    tau_star = outward_exit_time(0.25, 0.5)
    assert sc.stats[0].eps_log_mean == pytest.approx(
        0.25 * np.log(tau_star), abs=2e-2)


def test_rescaled_clock_and_original_clock():
    sc = exit_scaling(OUTWARD, [0.2], M=3, seed=3, q0=[0.5])
    st = sc.stats[0]
    assert st.n_samples == 3 and st.timeouts == 0
    assert not st.lower_bound


def test_timeout_rung_marks_lower_bound():
    """A rung whose paths hit the step cap only bounds the mean from
    below; the fit must use the clean rungs and flag the capped one.  The
    two rungs run in one kernel call, and each returns, bit for bit, what
    the kernel returns on that rung alone."""
    sc = exit_scaling(P1, [0.3, 0.1], M=6, seed=5, max_steps=20_000)
    clean, capped = sc.stats
    assert clean.timeouts == 0 and not clean.lower_bound
    assert capped.timeouts == 6 and capped.lower_bound
    assert list(sc.used_eps) == [0.3]
    assert sc.limit == pytest.approx(clean.eps_log_mean)
    for j, eps in enumerate(np.array([0.3, 0.1])):
        assert_same_stats(sc.stats[j], rung_alone(
            P1, eps, j, 6, 5, np.zeros(1), max_steps=20_000))


def test_all_rungs_capped_is_an_error():
    with pytest.raises(NumericalError):
        exit_scaling(P1, [0.08], M=3, seed=5, max_steps=40)


def test_barrier_hint_beyond_float_range_warns_then_times_out():
    """At V0_hint/eps = 1000, e^{V0/eps} is no float: the hint is compared
    in log space, warns about the step cap and lets the run time out."""
    with pytest.warns(UserWarning, match=r"e\^1000 approaches the step-cap"):
        with pytest.raises(NumericalError, match="every rung"):
            exit_scaling(P1, [0.001], M=1, seed=0, max_steps=10,
                         V0_hint=1.0)


def test_exit_concentrates_at_boundary():
    """Small noise concentrates exits at the lowest boundary points; the
    coordinate histogram puts its mode right at one of them."""
    sc = exit_scaling(P1, [0.22], M=64, seed=11)
    st = sc.stats[0]
    hist = exit_location_histogram(st, bins=8)
    assert hist.kind == "coordinate"
    assert abs(abs(hist.mode_point[0]) - 1.0) < 0.05
    assert hist.counts.sum() == st.exit_points.shape[0]


def test_angle_histogram_around_a_center():
    """d = 2 bins the angle of each exit point around center on
    [-pi, pi]: 30 points at angle 0.1, 20 at 2.0 and 10 at -3.0 around
    (1, -2), at radii whose mean is 1 in each group."""
    center = np.array([1.0, -2.0])
    angles = np.repeat([0.1, 2.0, -3.0], [30, 20, 10])
    radii = np.concatenate([np.linspace(0.5, 1.5, n) for n in (30, 20, 10)])
    pts = center + radii[:, None] * np.column_stack([np.cos(angles),
                                                     np.sin(angles)])
    st = ExitStats(eps=0.1, n_samples=60, mean_tau=1.0, ci_halfwidth=0.0,
                   eps_log_mean=0.0, exit_points=pts, taus=np.ones(60),
                   timeouts=0, lower_bound=False)
    hist = exit_location_histogram(st, bins=8, center=center)
    assert hist.kind == "angle"
    np.testing.assert_array_equal(hist.edges,
                                  np.linspace(-np.pi, np.pi, 9))
    # bins of width pi/4: -3.0 in the first, 0.1 in the fifth, 2.0 in
    # the seventh
    np.testing.assert_array_equal(hist.counts, [10, 0, 0, 0, 30, 0, 20, 0])
    assert hist.mode == pytest.approx(np.pi / 8)
    np.testing.assert_allclose(hist.mode_point,
                               center + [np.cos(0.1), np.sin(0.1)])
    # the default center is the origin, above every point: all angles < 0
    assert exit_location_histogram(st, bins=8).counts[4:].sum() == 0


def test_histogram_needs_enough_samples():
    sc = exit_scaling(OUTWARD, [0.25], M=3, seed=1, q0=[0.5])
    with pytest.raises(ConfigError):
        exit_location_histogram(sc.stats[0], bins=8)
