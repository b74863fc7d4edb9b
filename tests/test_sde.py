import gzip
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noise_row
from strongdamp.errors import ConfigError, NumericalError
from strongdamp.expr import EvalDomainError, eval_field
from strongdamp.fields import load_preset, load_problem
from strongdamp.sde import (GridMismatchError, NoisePath, SimParams,
                            Trajectory, default_step, dump_trajectory,
                            make_generator, make_step, philox_keys,
                            simulate_first_order, simulate_inertial,
                            stochastic_convolution)


P1 = load_preset("p1")
P2 = load_preset("p2")


def zero_noise(steps, r, h):
    return NoisePath(dt=h, increments=np.zeros((steps, r)))


def snap(T, h):
    """Largest step <= h that divides T exactly."""
    steps = int(np.ceil(T / h - 1e-9))
    return T / steps


def test_simparams_validation():
    with pytest.raises(ConfigError):
        SimParams(eps=0.0, T=1.0, h=0.1)
    with pytest.raises(ConfigError):
        SimParams(eps=0.5, T=1.0, h=0.3)         # T not a multiple of h
    with pytest.raises(ConfigError):
        SimParams(eps=0.5, T=1.0, h=0.1, scheme="heun")
    assert SimParams(eps=0.5, T=1.0, h=0.1).steps == 10


def test_euler_stability_guard():
    sp = SimParams(eps=0.1, T=0.1, h=0.01, scheme="euler")
    noise = zero_noise(sp.steps, 1, sp.h)
    with pytest.raises(NumericalError):
        simulate_inertial(P1, sp, np.array([0.5]), np.zeros(1), noise)


def test_noise_free_limit_matches_ode():
    """Without noise the damped system relaxes like the slow ODE
    q' = b/alpha once the velocity boundary layer has died out."""
    from scipy.integrate import solve_ivp
    eps = 0.05
    sp = SimParams(eps=eps, T=2.0, h=snap(2.0, 0.2 * eps**2 / P2.alpha_max))
    noise = zero_noise(sp.steps, 1, sp.h)
    tr = simulate_inertial(P2, sp, np.array([0.8]), np.zeros(1), noise)
    sol = solve_ivp(
        lambda t, q: P2.eval_b(q[None, :])[0] / P2.eval_alpha(q[None, :])[0],
        (0, tr.times[-1]), [0.8], t_eval=tr.times, rtol=1e-10, atol=1e-12)
    # skip the fast transient of length O(eps^2)
    skip = tr.times > 20 * eps**2
    assert np.max(np.abs(tr.q[skip, 0] - sol.y[0][skip])) < 5e-3


def test_schemes_agree_on_shared_noise():
    eps = 0.3
    h = 0.1 * eps**2 / P2.alpha_max
    steps = round(0.5 / h)
    h = 0.5 / steps
    noise = noise_row(3, 0, steps, 1, h)
    q0, p0 = np.array([0.4]), np.array([0.2])
    qs = {}
    for scheme in ("exponential", "euler"):
        sp = SimParams(eps=eps, T=0.5, h=h, scheme=scheme)
        qs[scheme] = simulate_inertial(P2, sp, q0, p0, noise).q
    assert np.max(np.abs(qs["exponential"] - qs["euler"])) < 5e-3


def _check_batch_equals_loop(p, first_order=False, control=False,
                             shared_start=False):
    """Each row of a stored batch equals the path simulated on its own.
    With shared_start, the batch starts from one (d,) point and must equal
    the batch started from that point tiled to one row per path."""
    eps = 0.25
    sp = SimParams(eps=eps, T=0.2, h=snap(0.2, 0.1 * eps**2 / p.alpha_max))
    ids = [4, 7, 9]
    batch = NoisePath.generate_batch(11, ids, sp.steps, p.r, sp.h)
    starts = p.O + 0.3 * np.arange(1, 4)[:, None] / p.d
    if shared_start:
        starts = np.tile(starts[0], (3, 1))
    p0 = np.full(p.d, 0.2)
    u = None
    if control:
        t = np.arange(sp.steps)[:, None] * sp.h
        u = np.sin(8.0 * t + np.arange(p.r))

    def run(q0, noise):
        if first_order:
            tr = simulate_first_order(p, sp, q0, noise, control=u)
        else:
            tr = simulate_inertial(p, sp, q0, p0, noise, control=u)
        return stochastic_convolution(tr, p, noise)

    tr = run(starts[0] if shared_start else starts, batch)
    if shared_start:
        tiled = run(starts, batch)
        for field in ("q", "p", "convolution"):
            np.testing.assert_array_equal(getattr(tr, field),
                                          getattr(tiled, field))
    for row, sid in enumerate(ids):
        single = noise_row(11, sid, sp.steps, p.r, sp.h)
        np.testing.assert_array_equal(single.increments,
                                      batch.increments[row])
        one = run(starts[row], single)
        assert tr.q[row].shape == one.q.shape
        np.testing.assert_allclose(tr.q[row], one.q, atol=1e-14)
        np.testing.assert_allclose(tr.p[row], one.p, atol=1e-14)
        np.testing.assert_allclose(tr.convolution[row], one.convolution,
                                   atol=1e-14)


def test_batch_equals_loop():
    _check_batch_equals_loop(P2)


@pytest.mark.parametrize("name,first_order,control", [
    ("p2", False, True),
    ("p3", False, False),
    ("p3", False, True),
    ("p2", True, False),
    ("p3", True, True),
])
def test_batch_equals_loop_layouts(name, first_order, control):
    """Time-major storage: d = r = 2 (p3), a control array and the
    first-order integrator give each row its single-path values."""
    _check_batch_equals_loop(load_preset(name), first_order, control)


@pytest.mark.parametrize("name,first_order", [("p2", False),
                                               ("p3", True)])
def test_batch_shared_start(name, first_order):
    """A (d,) start with batched noise starts every row there."""
    _check_batch_equals_loop(load_preset(name), first_order,
                             shared_start=True)


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
def test_batch_rows_equal_own_generator(seed):
    """Row i of a batch draw is make_generator(seed, id_i)'s draw.  A row
    holds 3 x 3 = 9 normals, not a multiple of Philox's four-word block,
    so a buffered word of one row would reach the next row if the batch
    did not empty the buffer when it re-keys."""
    ids = [0, 1, 2**32, 2**32 + 1, 2**63 + 5, 2**64 - 1, 3]
    steps, r, dt = 3, 3, 0.04
    batch = NoisePath.generate_batch(seed, ids, steps, r, dt)
    assert batch.increments.shape == (len(ids), steps, r)
    for row, sid in enumerate(ids):
        want = make_generator(seed, sid).standard_normal((steps, r)) \
            * np.sqrt(dt)
        np.testing.assert_array_equal(batch.increments[row], want)
        np.testing.assert_array_equal(
            noise_row(seed, sid, steps, r, dt).increments, want)


def test_batched_q0_needs_one_noise_path_per_row():
    """A single unbatched path would drive every row with the same
    increments; both integrators refuse it."""
    sp = SimParams(eps=0.5, T=0.1, h=0.01)
    shared = noise_row(3, 0, sp.steps, 1, sp.h)
    q0 = np.zeros((4, 1))
    with pytest.raises(GridMismatchError):
        simulate_first_order(P1, sp, q0, shared)
    with pytest.raises(GridMismatchError):
        simulate_inertial(P1, sp, q0, np.zeros((4, 1)), shared)
    batch = NoisePath.generate_batch(3, range(4), sp.steps, 1, sp.h)
    tr = simulate_first_order(P1, sp, q0, batch)
    assert len({tr.q[i, -1, 0] for i in range(4)}) == 4


def test_batches_split_one_draw():
    """Batches of M = 7 paths, 3 rows at a time from stream id 5, hold
    exactly one generate_batch draw over ids 5..11, the last batch short."""
    whole = NoisePath.generate_batch(5, range(5, 12), 6, 2, 0.1)
    parts = list(NoisePath.batches(5, 7, 6, 2, 0.1, first_id=5, rows=3))
    assert [start for start, _ in parts] == [0, 3, 6]
    assert [b.increments.shape[0] for _, b in parts] == [3, 3, 1]
    np.testing.assert_array_equal(
        np.concatenate([b.increments for _, b in parts]), whole.increments)


def test_stream_independence_of_batch_composition():
    a = NoisePath.generate_batch(5, [0, 1, 2, 3], 16, 2, 0.1)
    b = NoisePath.generate_batch(5, [2, 3], 16, 2, 0.1)
    np.testing.assert_array_equal(a.increments[2:], b.increments)


def test_numpy_integer_seeds_and_stream_ids():
    """np.arange ids and a NumPy seed key the same streams as Python ints
    (masking a NumPy int64 with 2**64 - 1 used to overflow)."""
    a = NoisePath.generate_batch(np.int64(-3), np.arange(3), 5, 2, 0.1)
    b = NoisePath.generate_batch(-3, [0, 1, 2], 5, 2, 0.1)
    np.testing.assert_array_equal(a.increments, b.increments)
    np.testing.assert_array_equal(
        make_generator(np.uint64(2**64 - 1), np.int64(7)).standard_normal(4),
        make_generator(-1, 7).standard_normal(4))


def _splitmix64(x):
    """Scalar SplitMix64 finalizer on Python ints, the keys' oracle."""
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


@pytest.mark.parametrize("seed", [-1, 2**64 - 1, np.int64(-3)])
def test_philox_keys_match_scalar_splitmix(seed):
    """The uint64 array keys equal the Python-int SplitMix64 keys
    (mix(s), mix(mix(s) ^ mix(id))), seed and ids taken mod 2^64, whether
    the ids come as a list, a range or np.arange."""
    mask = (1 << 64) - 1
    ids = [0, 1, 2**32, 2**63 + 5, 2**64 - 1]
    k0 = _splitmix64(int(seed) & mask)
    want = [[k0, _splitmix64(k0 ^ _splitmix64(i))] for i in ids]
    assert philox_keys(seed, ids).tolist() == want
    for i, row in zip(ids, want):
        assert philox_keys(seed, range(i, i + 1)).tolist() == [row]
        dtype = np.uint64 if i >= 2**63 else np.int64
        assert philox_keys(seed, np.arange(i, i + 1, dtype=dtype)).tolist() \
            == [row]


def test_batch_increments_are_time_major():
    """The step loops read increment k of every row as one block: the
    time-major view of a batch is C-contiguous, so no strided read moves
    from the draw into the per-step loop.  Rows past the first block of
    draws still hold their own streams."""
    for rows, steps, r in [(2, 5, 1), (300, 7, 2), (513, 3, 1)]:
        batch = NoisePath.generate_batch(1, range(rows), steps, r, 0.01)
        assert np.moveaxis(batch.increments, -2, 0).flags.c_contiguous
        np.testing.assert_array_equal(
            batch.increments[-1],
            make_generator(1, rows - 1).standard_normal((steps, r))
            * np.sqrt(0.01))


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
def test_non_finite_or_non_positive_steps_are_config_errors(bad):
    with pytest.raises(ConfigError):
        NoisePath.generate_batch(0, range(2), 4, 1, bad)
    with pytest.raises(ConfigError):
        SimParams(eps=0.3, T=bad, h=0.01)
    with pytest.raises(ConfigError):
        SimParams(eps=0.3, T=0.1, h=bad)


def test_generator_streams_do_not_collide():
    x = make_generator(1, 0).standard_normal(8)
    y = make_generator(1, 1).standard_normal(8)
    z = make_generator(2, 0).standard_normal(8)
    assert not np.allclose(x, y) and not np.allclose(x, z)


def test_coarsen_preserves_brownian_path():
    noise = noise_row(0, 0, 24, 2, 0.05)
    coarse = noise.coarsen(4)
    assert coarse.steps == 6 and coarse.dt == pytest.approx(0.2)
    np.testing.assert_allclose(
        coarse.increments, noise.increments.reshape(6, 4, 2).sum(axis=1))
    with pytest.raises(GridMismatchError):
        noise.coarsen(5)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8))
def test_coarsen_total_displacement_property(factor, groups):
    steps = factor * groups
    noise = noise_row(9, 3, steps, 1, 0.01)
    coarse = noise.coarsen(factor)
    np.testing.assert_allclose(coarse.increments.sum(axis=0),
                               noise.increments.sum(axis=0), atol=1e-12)


def test_stationary_moments_constant_friction():
    """For b = -q, alpha = sigma = 1 the damped system is a linear
    oscillator whose stationary position variance is eps/2."""
    eps = 0.3
    M = 3000
    sp = SimParams(eps=eps, T=6.0, h=snap(6.0, 0.2 * eps**2))
    noise = NoisePath.generate_batch(21, range(M), sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.zeros((M, 1)), np.zeros((M, 1)), noise)
    var = float(np.var(tr.q[:, -1, 0]))
    assert abs(var - eps / 2) < 0.1 * (eps / 2)


def test_convolution_pointwise_variance():
    """H(t) for constant friction is a discrete Ito sum whose variance is
    the geometric series eps * h * sum_{j=1..n} exp(-2 theta j); the
    continuous limit eps^3 (1 - exp(-2 t / eps^2)) / 2 sits a factor
    2 theta / (e^{2 theta} - 1) above it."""
    eps = 0.4
    M = 4000
    sp = SimParams(eps=eps, T=1.0, h=snap(1.0, 0.1 * eps**2))
    theta = sp.h / eps**2
    n = sp.steps
    target = eps * sp.h * np.exp(-2 * theta) \
        * (1 - np.exp(-2 * theta * n)) / (1 - np.exp(-2 * theta))
    noise = NoisePath.generate_batch(13, range(M), sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.zeros((M, 1)), np.zeros((M, 1)), noise)
    tr = stochastic_convolution(tr, P1, noise)
    var = float(np.var(tr.convolution[:, -1, 0]))
    assert abs(var - target) < 0.08 * target
    cont = eps**3 * (1 - np.exp(-2 * 1.0 / eps**2)) / 2
    assert abs(var - cont) < 0.15 * cont


def test_convolution_grid_mismatch():
    eps = 0.4
    sp = SimParams(eps=eps, T=0.5, h=snap(0.5, 0.1 * eps**2))
    noise = noise_row(0, 0, sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.zeros(1), np.zeros(1), noise)
    other = noise_row(0, 0, sp.steps * 2, 1, sp.h / 2)
    with pytest.raises(GridMismatchError):
        stochastic_convolution(tr, P1, other)


def test_first_order_limit_tracks_inertial():
    eps = 0.04
    h = 0.2 * eps**2 / P2.alpha_max
    steps = round(1.0 / h)
    h = 1.0 / steps
    noise = noise_row(6, 0, steps, 1, h)
    sp = SimParams(eps=eps, T=1.0, h=h)
    tr2 = simulate_inertial(P2, sp, np.array([0.6]), np.zeros(1), noise)
    tr1 = simulate_first_order(P2, sp, np.array([0.6]), noise)
    skip = tr1.times > 20 * eps**2
    assert np.max(np.abs(tr1.q[skip, 0] - tr2.q[skip, 0])) < 0.05


def oracle_step(p, eps, h, scheme, q, v, dW, u=None):
    """One step written out with the checked evaluators and einsum, in the
    order of operations that make_step has to keep bit for bit."""
    def apply(sig, vec):
        return np.einsum("...dr,...r->...d", sig, vec)
    eps2 = eps * eps
    noise_pow = eps ** (0.5 - p.beta)
    sig = p.eval_sigma(q) if p.sigma_const is None else p.sigma_const
    if p.alpha_const is None:
        al = p.eval_alpha(q)[..., None]
        decay = np.exp(-al * h / eps2)
    else:
        al = p.alpha_const
        decay = np.exp(-(al * h / eps2))
    drift = p.eval_b(q)
    if u is not None:
        drift = drift + apply(sig, u)
    if scheme == "euler":
        v1 = (v + (h / eps2) * (drift - al * v)
              + noise_pow * apply(sig, dW) / eps2)
        return q + h * v, v1
    if scheme == "first_order":
        q1 = q + h * drift / al + noise_pow * apply(sig, dW) / al
        return q1, v
    mu1 = (eps2 / al) * (1.0 - decay)
    amp = noise_pow * np.sqrt((1.0 - decay**2) / (2.0 * al * eps2))
    drift = drift / al
    xi = amp * apply(sig, dW) / np.sqrt(h)
    v1 = decay * v + (1.0 - decay) * drift + xi
    q1 = q + v * mu1 + drift * (h - mu1) + (0.5 * h) * xi
    return q1, v1


def _planar(sigma, alpha, alpha0):
    return load_problem({
        "d": 2, "r": 2, "b": ["-q1 + 0.3*sin(q2)", "-q2 - 0.2*q1^3"],
        "sigma": sigma, "alpha": alpha, "alpha0": alpha0, "O": [0.0, 0.0],
        "box": [[-2.0, 2.0], [-2.0, 2.0]]})


STEP_CASES = {
    "diagonal": _planar([["0.7", "0"], ["0", "1.3"]], "2.5", 2.5),
    "off_diagonal": _planar([["1", "0.4"], ["-0.3", "0.8"]], "1.5", 1.5),
    "state_dependent": _planar(
        [["1 + 0.2*sin(q1)", "0.1*q2"], ["0", "1.5 + 0.1*cos(q2)"]],
        "2 + 0.5*cos(q1)", 1.5),
    "identity": load_preset("p3"),
}


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("control", [False, True])
@pytest.mark.parametrize("scheme", ["exponential", "euler", "first_order"])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_matches_checked_einsum_oracle(case, scheme, control):
    """The compiled step and its checked twin, with a constant identity
    sigma skipped and the friction constants hoisted, give the oracle's
    bits over a few chained steps."""
    p = STEP_CASES[case]
    eps = 0.3
    h = 0.5 * default_step(p, eps)
    step = make_step(p, eps, h, scheme)
    rng = np.random.default_rng(4)
    q = rng.uniform(-1.5, 1.5, (16, p.d))
    v = rng.standard_normal((16, p.d))
    u = rng.standard_normal(p.r) if control else None
    for _ in range(4):
        dW = rng.standard_normal((16, p.r)) * np.sqrt(h)
        want = oracle_step(p, eps, h, scheme, q, v, dW, u)
        for fn in (step, step.checked):
            for got, exp in zip(fn(q, v, dW, u), want):
                _same_bits(got, exp)
        q, v = want[0], want[1]


@pytest.mark.parametrize("scheme", ["exponential", "euler", "first_order"])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_per_row_eps_and_h_match_float_steps(case, scheme):
    """Rows of two eps, each with its own h, stepped at once on per-row
    constants taken on a subset of rows, as the exit kernel keeps them:
    every row gets the bits of the step built from its own float eps
    and h."""
    p = STEP_CASES[case]
    ladder = np.array([0.3, 0.25])
    hs = np.array([0.5 * default_step(p, e) for e in ladder])
    rung = np.repeat([0, 1], 8)
    step = make_step(p, ladder[rung], hs[rung], scheme)
    rng = np.random.default_rng(7)
    q = rng.uniform(-1.5, 1.5, (16, p.d))
    v = rng.standard_normal((16, p.d))
    dW = rng.standard_normal((16, p.r)) * np.sqrt(hs[rung])[:, None]
    rows = np.array([0, 3, 5, 8, 9, 15])
    c = tuple(step.constants.take(rows, axis=1))
    for fn in (step, step.checked):
        got = fn(q[rows], v[rows], dW[rows], c=c)
        for j in (0, 1):
            alone = make_step(p, ladder[j], hs[j], scheme)
            on = rung[rows] == j
            want = alone(q[rows][on], v[rows][on], dW[rows][on])
            for g, w in zip(got, want):
                _same_bits(g[on], w)


def test_convolution_matches_double_sum_at_state_dependent_coefficients():
    """H(t_n) = eps^(1/2-beta) sum_{k<n} exp(-(A(t_n) - A(t_k))/eps^2)
    sigma(q_k) dW_k with the left-point friction integral
    A(t_n) = sum_{k<n} alpha(q_k) h, written out as a double sum over the
    checked walker's alpha and sigma on a batch of 40-step paths."""
    p = STEP_CASES["state_dependent"]
    eps, steps, M = 0.3, 40, 6
    h = 0.5 * default_step(p, eps)
    sp = SimParams(eps=eps, T=steps * h, h=h)
    noise = NoisePath.generate_batch(8, range(M), steps, p.r, h)
    starts = np.stack([np.linspace(-1.5, 1.5, M), np.linspace(1, -1, M)], 1)
    tr = simulate_inertial(p, sp, starts, np.full(p.d, 0.5), noise)
    got = stochastic_convolution(tr, p, noise).convolution
    q, dW = tr.q[:, :-1], noise.increments
    al = eval_field(p.alpha, q)
    sig = np.stack([eval_field(e, q) for row in p.sigma for e in row],
                   axis=-1).reshape(q.shape[:-1] + (p.d, p.r))
    A = np.concatenate([np.zeros((M, 1)), np.cumsum(al * h, axis=1)], axis=1)
    want = np.zeros_like(got)
    for n in range(1, steps + 1):
        for k in range(n):
            want[:, n] += np.exp(-(A[:, n] - A[:, k]) / eps**2)[:, None] \
                * np.einsum("mdr,mr->md", sig[:, k], dW[:, k])
    want *= eps ** (0.5 - p.beta)
    assert np.ptp(al) > 0.5 and np.max(np.abs(want)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def test_convolution_reads_the_step_not_the_start_time():
    """A stored path whose times start at t0 > 0 gets the same H as the
    same path started at 0; a path of no steps gets H = 0."""
    eps, h = 0.3, 0.01
    sp = SimParams(eps=eps, T=50 * h, h=h)
    noise = noise_row(3, 0, sp.steps, P2.r, h)
    tr = simulate_inertial(P2, sp, np.full(P2.d, 0.2), np.zeros(P2.d), noise)
    want = stochastic_convolution(tr, P2, noise).convolution
    late = Trajectory(times=tr.times + 2.0, q=tr.q, p=tr.p, eps=eps)
    got = stochastic_convolution(late, P2, noise).convolution
    assert np.max(np.abs(want)) > 1e-2
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    empty = Trajectory(times=np.zeros(1), q=tr.q[:1], p=tr.p[:1], eps=eps)
    _same_bits(stochastic_convolution(empty, P2, noise).convolution,
               np.zeros((1, P2.d)))


def test_drift_leaving_its_domain_names_the_subexpression():
    """The stored-path loop owns one trap for all its steps; the step that
    takes q1 past 2 re-runs checked and names the failing sub-expression."""
    p = load_problem({
        "d": 1, "r": 1, "b": ["2 + 0.001*log(2 - q1)"], "sigma": [["0.1"]],
        "alpha": "1", "alpha0": 1.0, "O": [0.0], "box": [[-3.0, 3.0]],
    })
    sp = SimParams(eps=0.15, T=1.5, h=snap(1.5, default_step(p, 0.15)))
    noise = noise_row(2, 0, sp.steps, 1, sp.h)
    with pytest.raises(EvalDomainError, match=r"'log\(2 - q1\)'"):
        simulate_inertial(p, sp, np.zeros(1), np.zeros(1), noise)


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
def test_dump_roundtrip(tmp_path, suffix):
    eps = 0.3
    sp = SimParams(eps=eps, T=0.2, h=snap(0.2, 0.2 * eps**2))
    noise = noise_row(2, 5, sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.array([0.1]), np.array([0.3]), noise)
    tr = stochastic_convolution(tr, P1, noise)
    path = str(tmp_path / f"traj{suffix}")
    dump_trajectory(tr, path)
    raw = Path(path).read_bytes()
    text = gzip.decompress(raw).decode() if suffix.endswith(".gz") \
        else raw.decode()
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    header = text.splitlines()[0].split(",")
    assert header == ["t", "q1", "p1", "H1"]
    np.testing.assert_allclose(rows[:, 0], tr.times)
    np.testing.assert_allclose(rows[:, 1], tr.q[:, 0])
    np.testing.assert_allclose(rows[:, 3], tr.convolution[:, 0])


@pytest.mark.parametrize("with_p, with_h", [(True, True), (False, False)])
def test_dump_bytes_match_per_row_repr(tmp_path, with_p, with_h):
    rng = np.random.default_rng(3)
    n, d = 40, 2
    tr = Trajectory(times=np.linspace(0.0, 0.3, n),
                    q=rng.standard_normal((n, d)) * 1e-7,
                    p=rng.standard_normal((n, d)) if with_p
                    else np.zeros((n, 0)),
                    eps=0.1,
                    convolution=rng.standard_normal((n, d)) if with_h
                    else None)
    tr.q[3, 1] = -0.0
    cols = [tr.times[:, None], tr.q, tr.p]
    if with_h:
        cols.append(tr.convolution)
    header = ["t", "q1", "q2"] + (["p1", "p2"] if with_p else []) \
        + (["H1", "H2"] if with_h else [])
    lines = [",".join(header)] + [
        ",".join(repr(float(v)) for v in np.concatenate([c[k] for c in cols]))
        for k in range(n)]
    want = ("\n".join(lines) + "\n").encode()
    plain, packed = str(tmp_path / "a.csv"), str(tmp_path / "a.csv.gz")
    dump_trajectory(tr, plain)
    dump_trajectory(tr, packed)
    assert Path(plain).read_bytes() == want
    raw = Path(packed).read_bytes()
    assert raw[4:8] == bytes(4)                  # mtime pinned to 0
    assert gzip.decompress(raw) == want


def test_dump_gzip_is_reproducible(tmp_path):
    eps = 0.3
    sp = SimParams(eps=eps, T=0.1, h=snap(0.1, 0.2 * eps**2))
    noise = noise_row(2, 5, sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.array([0.1]), np.zeros(1), noise)
    # identical content must give identical bytes even under different
    # file names (no embedded name or timestamp in the archive)
    a, b = str(tmp_path / "a.csv.gz"), str(tmp_path / "b.csv.gz")
    dump_trajectory(tr, a)
    dump_trajectory(tr, b)
    assert Path(a).read_bytes() == Path(b).read_bytes()
