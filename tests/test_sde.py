import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdamp.errors import ConfigError, NumericalError
from strongdamp.fields import load_preset, load_problem
from strongdamp.sde import (GridMismatchError, NoisePath, SimParams,
                            dump_trajectory, make_generator,
                            rescale_to_original_time, simulate_first_order,
                            simulate_inertial, stochastic_convolution)


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
    noise = NoisePath.generate(3, 0, steps, 1, h)
    q0, p0 = np.array([0.4]), np.array([0.2])
    qs = {}
    for scheme in ("exponential", "euler"):
        sp = SimParams(eps=eps, T=0.5, h=h, scheme=scheme)
        qs[scheme] = simulate_inertial(P2, sp, q0, p0, noise).q
    assert np.max(np.abs(qs["exponential"] - qs["euler"])) < 5e-3


def test_batch_equals_loop():
    eps = 0.25
    sp = SimParams(eps=eps, T=0.2, h=snap(0.2, 0.1 * eps**2 / P2.alpha_max))
    ids = [4, 7, 9]
    batch = NoisePath.generate_batch(11, ids, sp.steps, 1, sp.h)
    q0 = np.tile(np.array([0.3]), (3, 1))
    p0 = np.zeros((3, 1))
    tr = simulate_inertial(P2, sp, q0, p0, batch)
    for row, sid in enumerate(ids):
        single = NoisePath.generate(11, sid, sp.steps, 1, sp.h)
        np.testing.assert_array_equal(single.increments,
                                      batch.increments[row])
        one = simulate_inertial(P2, sp, np.array([0.3]), np.zeros(1), single)
        np.testing.assert_allclose(tr.q[row], one.q, atol=1e-14)


def test_batched_q0_needs_one_noise_path_per_row():
    """A single unbatched path would drive every row with the same
    increments; both integrators refuse it."""
    sp = SimParams(eps=0.5, T=0.1, h=0.01)
    shared = NoisePath.generate(3, 0, sp.steps, 1, sp.h)
    q0 = np.zeros((4, 1))
    with pytest.raises(GridMismatchError):
        simulate_first_order(P1, sp, q0, shared)
    with pytest.raises(GridMismatchError):
        simulate_inertial(P1, sp, q0, np.zeros((4, 1)), shared)
    batch = NoisePath.generate_batch(3, range(4), sp.steps, 1, sp.h)
    tr = simulate_first_order(P1, sp, q0, batch)
    assert len({tr.q[i, -1, 0] for i in range(4)}) == 4


def test_stream_independence_of_batch_composition():
    a = NoisePath.generate_batch(5, [0, 1, 2, 3], 16, 2, 0.1)
    b = NoisePath.generate_batch(5, [2, 3], 16, 2, 0.1)
    np.testing.assert_array_equal(a.increments[2:], b.increments)


def test_generator_streams_do_not_collide():
    x = make_generator(1, 0).standard_normal(8)
    y = make_generator(1, 1).standard_normal(8)
    z = make_generator(2, 0).standard_normal(8)
    assert not np.allclose(x, y) and not np.allclose(x, z)


def test_coarsen_preserves_brownian_path():
    noise = NoisePath.generate(0, 0, 24, 2, 0.05)
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
    noise = NoisePath.generate(9, 3, steps, 1, 0.01)
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
    noise = NoisePath.generate(0, 0, sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.zeros(1), np.zeros(1), noise)
    other = NoisePath.generate(0, 0, sp.steps * 2, 1, sp.h / 2)
    with pytest.raises(GridMismatchError):
        stochastic_convolution(tr, P1, other)


def test_first_order_limit_tracks_inertial():
    eps = 0.04
    h = 0.2 * eps**2 / P2.alpha_max
    steps = round(1.0 / h)
    h = 1.0 / steps
    noise = NoisePath.generate(6, 0, steps, 1, h)
    sp = SimParams(eps=eps, T=1.0, h=h)
    tr2 = simulate_inertial(P2, sp, np.array([0.6]), np.zeros(1), noise)
    tr1 = simulate_first_order(P2, sp, np.array([0.6]), noise)
    skip = tr1.times > 20 * eps**2
    assert np.max(np.abs(tr1.q[skip, 0] - tr2.q[skip, 0])) < 0.05


def test_rescale_to_original_time():
    eps = 0.2
    sp = SimParams(eps=eps, T=0.4, h=snap(0.4, 0.2 * eps**2))
    noise = zero_noise(sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.array([0.5]), np.zeros(1), noise)
    orig = rescale_to_original_time(tr)
    np.testing.assert_allclose(orig.times, tr.times / eps)
    np.testing.assert_array_equal(orig.q, tr.q)


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
def test_dump_roundtrip(tmp_path, suffix):
    eps = 0.3
    sp = SimParams(eps=eps, T=0.2, h=snap(0.2, 0.2 * eps**2))
    noise = NoisePath.generate(2, 5, sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.array([0.1]), np.array([0.3]), noise)
    tr = stochastic_convolution(tr, P1, noise)
    path = str(tmp_path / f"traj{suffix}")
    dump_trajectory(tr, path)
    raw = open(path, "rb").read()
    text = gzip.decompress(raw).decode() if suffix.endswith(".gz") \
        else raw.decode()
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    header = text.splitlines()[0].split(",")
    assert header == ["t", "q1", "p1", "H1"]
    np.testing.assert_allclose(rows[:, 0], tr.times)
    np.testing.assert_allclose(rows[:, 1], tr.q[:, 0])
    np.testing.assert_allclose(rows[:, 3], tr.convolution[:, 0])


def test_dump_gzip_is_reproducible(tmp_path):
    eps = 0.3
    sp = SimParams(eps=eps, T=0.1, h=snap(0.1, 0.2 * eps**2))
    noise = NoisePath.generate(2, 5, sp.steps, 1, sp.h)
    tr = simulate_inertial(P1, sp, np.array([0.1]), np.zeros(1), noise)
    # identical content must give identical bytes even under different
    # file names (no embedded name or timestamp in the archive)
    a, b = str(tmp_path / "a.csv.gz"), str(tmp_path / "b.csv.gz")
    dump_trajectory(tr, a)
    dump_trajectory(tr, b)
    assert open(a, "rb").read() == open(b, "rb").read()
