import numpy as np
import pytest

from strongdamp.errors import ConfigError, NumericalError
from strongdamp.exit import (exit_location_histogram, exit_scaling,
                             sample_exit)
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


def test_deterministic_exit_time():
    res = sample_exit(OUTWARD, eps=0.2, q0=[0.5], seed=0)
    assert not res.timeout
    assert res.tau == pytest.approx(outward_exit_time(0.2, 0.5), abs=1e-2)
    assert res.exit_point[0] == pytest.approx(1.0, abs=1e-2)


def test_start_outside_returns_zero():
    res = sample_exit(P1, eps=0.2, q0=[1.5], seed=0)
    assert res.tau == 0.0 and not res.timeout
    np.testing.assert_array_equal(res.exit_point, [1.5])


def test_timeout_flagged():
    res = sample_exit(P1, eps=0.1, q0=[0.0], seed=0, max_steps=50)
    assert res.timeout


def test_halved_step_same_brownian_path():
    eps = 0.2
    h = 0.2 * eps**2
    fine = NoisePath.generate(7, 0, 4000, 1, h / 2)
    coarse = fine.coarsen(2)
    a = sample_exit(OUTWARD, eps, q0=[0.5], seed=7, h=h, noise=coarse)
    b = sample_exit(OUTWARD, eps, q0=[0.5], seed=7, h=h / 2, noise=fine)
    assert not a.timeout and not b.timeout
    assert abs(a.tau - b.tau) < 2e-2


def test_provided_noise_exhaustion_is_an_error():
    short = NoisePath.generate(7, 0, 10, 1, 0.2 * 0.2**2)
    with pytest.raises(ConfigError, match="ran out"):
        sample_exit(P1, 0.2, q0=[0.0], seed=7, h=0.2 * 0.2**2, noise=short)


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
    """On the same noise, the exit kernel and simulate_inertial share one
    step: the crossing rebuilt from the stored path is bit-identical."""
    p = load_preset(preset)
    eps, steps = 0.5, 5000
    h = default_step(p, eps)
    noise = NoisePath.generate(5, 0, steps, 1, h)
    q0, p0 = np.array([0.3]), np.array([0.2])
    res = sample_exit(p, eps, q0=q0, p0=p0, seed=5, h=h, scheme=scheme,
                      noise=noise)
    tr = simulate_inertial(p, SimParams(eps=eps, T=steps * h, h=h,
                                        scheme=scheme), q0, p0, noise)
    phi = p.eval_phi(tr.q)
    n = int(np.argmax(phi >= 0)) - 1
    assert n >= 0 and not res.timeout
    frac = phi[n] / (phi[n] - phi[n + 1])
    assert res.tau == (n + frac) * h
    assert res.exit_point[0] == tr.q[n, 0] + frac * (tr.q[n + 1, 0]
                                                     - tr.q[n, 0])


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
    np.testing.assert_allclose(st.taus_original(), st.taus / 0.2)
    assert st.n_samples == 3 and st.timeouts == 0
    assert not st.lower_bound


def test_timeout_rung_marks_lower_bound():
    """A rung whose paths hit the step cap only bounds the mean from
    below; the fit must use the clean rungs and flag the capped one."""
    sc = exit_scaling(P1, [0.3, 0.1], M=6, seed=5, max_steps=20_000)
    clean, capped = sc.stats
    assert clean.timeouts == 0 and not clean.lower_bound
    assert capped.timeouts == 6 and capped.lower_bound
    assert list(sc.used_eps) == [0.3]
    assert sc.limit == pytest.approx(clean.eps_log_mean)


def test_all_rungs_capped_is_an_error():
    with pytest.raises(NumericalError):
        exit_scaling(P1, [0.08], M=3, seed=5, max_steps=40)


def test_exit_concentrates_at_boundary():
    """Small noise concentrates exits at the lowest boundary points; the
    coordinate histogram puts its mode right at one of them."""
    sc = exit_scaling(P1, [0.22], M=64, seed=11)
    st = sc.stats[0]
    hist = exit_location_histogram(st, bins=8)
    assert hist.kind == "coordinate"
    assert abs(abs(hist.mode_point[0]) - 1.0) < 0.05
    assert hist.counts.sum() == st.exit_points.shape[0]


def test_histogram_needs_enough_samples():
    sc = exit_scaling(OUTWARD, [0.25], M=3, seed=1, q0=[0.5])
    with pytest.raises(ConfigError):
        exit_location_histogram(sc.stats[0], bins=8)
