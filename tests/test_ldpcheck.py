import math
import statistics
import warnings

import numpy as np
import pytest

import strongdamp.ldpcheck
import strongdamp.sde
from strongdamp.action import ControlSignal
from strongdamp.errors import ConfigError, NumericalError
from strongdamp.fields import load_preset, load_problem
from strongdamp.ldpcheck import (controlled_convergence, fit_line,
                                 h_eps_scaling, laplace_check,
                                 minimize_terminal_plus_action, rung_log_mean,
                                 rung_mean)
from strongdamp.sde import NoisePath


P1 = load_preset("p1")
P2 = load_preset("p2")

NOISELESS = load_problem({
    "d": 1, "r": 1, "b": ["-q1"], "sigma": [["0"]], "alpha": "1",
    "alpha0": 1.0, "O": [0.0], "box": [[-4.0, 4.0]],
})


def test_short_horizon_exponent_near_half():
    """Inside the friction relaxation time the convolution grows like a
    Brownian integral and the sup scales as sqrt(eps)."""
    fit = h_eps_scaling(P2, (0.2, 0.1, 0.05), M=300, T=2e-4, seed=7)
    assert 0.3 <= fit.fitted_exponent <= 0.7
    assert fit.r_squared >= 0.9
    assert np.all(np.diff(fit.metric_values) < 0)


def test_long_horizon_exponent_near_three_halves():
    """Over a fixed long window the sup is governed by the pointwise
    eps^{3/2} amplitude (times a slowly varying log factor)."""
    fit = h_eps_scaling(P2, (0.2, 0.1, 0.05), M=200, T=1.0, seed=7)
    assert 1.0 <= fit.fitted_exponent <= 1.45


def test_moment_metric_exponent():
    fit = h_eps_scaling(P1, (0.2, 0.1, 0.05), M=300, T=1.0, seed=7, k=2)
    assert 1.1 <= fit.fitted_exponent <= 1.9


def test_degenerate_sigma_is_an_error():
    with pytest.raises(NumericalError, match="degenerate"):
        h_eps_scaling(NOISELESS, (0.2, 0.1, 0.05), M=8, T=1e-3, seed=0)


def test_ladder_needs_three_rungs():
    with pytest.raises(ConfigError):
        h_eps_scaling(P1, (0.2, 0.1), M=8, T=1e-3, seed=0)


def test_controlled_noiseless_bias_shrinks_quadratically():
    """Without noise the only deviation from the skeleton is the inertial
    correction, whose slow-eigenvalue shift is O(eps^2)."""
    u = ControlSignal(T=1.0, values=np.zeros(65))
    fit = controlled_convergence(NOISELESS, u, (0.2, 0.1, 0.05, 0.025),
                                 M=2, seed=0, q0=[0.8])
    assert fit.metric_values[-1] <= 1e-3
    assert 1.5 <= fit.fitted_exponent <= 2.5


def test_controlled_deviation_decreases():
    u = ControlSignal(T=2.0, values=np.sin(np.linspace(0, 2.0, 129)))
    fit = controlled_convergence(P1, u, (0.3, 0.2, 0.1), M=150, seed=5)
    assert np.all(np.diff(fit.metric_values) < 0)


def test_controlled_initial_momentum_still_converges():
    """A nonzero initial momentum only excites the fast boundary layer,
    which dies on the eps^2 scale and cannot spoil convergence."""
    u = ControlSignal(T=2.0, values=np.sin(np.linspace(0, 2.0, 129)))
    fit = controlled_convergence(P1, u, (0.3, 0.2, 0.1), M=150, seed=5,
                                 p0=[1.0])
    assert np.all(np.diff(fit.metric_values) < 0)


def test_controlled_oscillation_does_not_break_limit():
    u = ControlSignal(T=1.0, values=np.zeros(65))
    fit = controlled_convergence(P1, u, (0.3, 0.2, 0.1), M=150, seed=5,
                                 osc_amplitude=0.5)
    assert np.all(np.diff(fit.metric_values) < 0)


def test_two_rungs_fit_nothing():
    u = ControlSignal(T=1.0, values=np.zeros(33))
    fit = controlled_convergence(P1, u, (0.3, 0.2), M=20, seed=1)
    assert np.isnan(fit.fitted_exponent)
    assert fit.metric_values.size == 2


def test_laplace_constant_cost_is_exact():
    rep = laplace_check(P1, "0.7", (0.25, 0.125), M=40, T=0.5, seed=3)
    np.testing.assert_allclose(rep.lhs_values, 0.7, atol=1e-12)
    assert rep.extrapolated == pytest.approx(0.7, abs=1e-12)
    assert rep.variational_value == pytest.approx(0.7, abs=1e-6)
    assert rep.rel_gap < 1e-6


def test_laplace_zero_cost():
    rep = laplace_check(P1, "0", (0.25, 0.125), M=40, T=0.5, seed=3)
    assert rep.extrapolated == pytest.approx(0.0, abs=1e-12)
    assert rep.variational_value == pytest.approx(0.0, abs=1e-8)


def test_laplace_quadratic_cost_small_gap():
    rep = laplace_check(P1, "2*(q1 - 0.5)^2", (0.25, 1 / 6, 0.125),
                        M=2000, T=1.0, seed=3)
    assert rep.rel_gap < 0.25
    assert rep.minimizer_endpoint.shape == (1,)
    assert 0.0 < rep.minimizer_endpoint[0] < 0.5


def test_variational_side_matches_linear_oracle():
    """Terminal cost lam*(q-y)^2 against action I_T(x) = k x^2 with
    k = (e^{2T}-1)/(4 sinh^2 T): the optimum is explicit."""
    lam, y, T = 10.0, 0.8, 1.0
    k = (np.exp(2 * T) - 1) / (4 * np.sinh(T) ** 2)
    x_star = lam * y / (k + lam)
    expect = k * x_star**2 + lam * (x_star - y) ** 2
    val, endpoint, path = minimize_terminal_plus_action(
        P1, P1.O, T, f"{lam}*(q1 - {y})^2", N=64, seed=0)
    assert val == pytest.approx(expect, rel=1e-3)
    assert endpoint[0] == pytest.approx(x_star, abs=2e-3)
    assert path.points.shape[0] == 65


def test_terminal_cost_may_not_use_reaction_variable():
    with pytest.raises(ConfigError):
        minimize_terminal_plus_action(P1, P1.O, 1.0, "u + q1^2")


def test_variational_start_of_wrong_shape_is_rejected():
    with pytest.raises(ConfigError, match=r"q_start must have shape \(1,\)"):
        minimize_terminal_plus_action(P1, [0.0, 0.5], 1.0,
                                      "10*(q1-0.8)^2", N=16)


def test_laplace_start_of_wrong_shape_is_rejected_before_simulating(
        monkeypatch):
    def no_paths(*args, **kwargs):
        raise AssertionError("laplace check drew paths")

    monkeypatch.setattr(strongdamp.ldpcheck, "path_values", no_paths)
    with pytest.raises(ConfigError, match=r"q0 must have shape \(1,\)"):
        laplace_check(P1, "q1^2", (0.25, 0.125), M=4, T=0.5, seed=0,
                      q0=[0.0, 0.5])


def _no_batches(monkeypatch):
    def drawn(*args, **kwargs):
        raise AssertionError("a noise batch was drawn")
    monkeypatch.setattr(NoisePath, "generate_batch", drawn)


LADDER_CHECKS = {
    "h_eps_scaling": lambda ladder, M=4: h_eps_scaling(
        P2, ladder, M=M, T=1e-3, seed=0),
    "controlled_convergence": lambda ladder, M=4: controlled_convergence(
        P2, ControlSignal(T=0.5, values=np.zeros(17)), ladder, M=M, seed=0),
    "laplace_check": lambda ladder, M=4: laplace_check(
        P2, "q1^2", ladder, M=M, T=0.5, seed=0),
}


@pytest.mark.parametrize("ladder, message", [
    ((0.05, 0.1, 0.2), "strictly decreasing"),
    ((0.2, 0.2, 0.1), "strictly decreasing"),
    ((0.2, 0.1, 1.5), "strictly decreasing"),
    ((0.2, 0.1, 0.0), r"eps must lie in \(0, 1\]"),
    ((1.5, 0.2, 0.1), r"eps must lie in \(0, 1\]"),
], ids=["increasing", "repeated", "late_above_one", "late_zero",
        "first_above_one"])
@pytest.mark.parametrize("check", sorted(LADDER_CHECKS))
def test_every_check_rejects_a_bad_ladder_before_any_path(
        monkeypatch, check, ladder, message):
    """The rungs must decrease strictly and lie in (0, 1]; a check refuses
    any other ladder before it draws noise for its first rung."""
    _no_batches(monkeypatch)
    with pytest.raises(ConfigError, match=message):
        LADDER_CHECKS[check](ladder)


@pytest.mark.parametrize("check", sorted(LADDER_CHECKS))
def test_every_path_loop_rejects_zero_samples_before_any_path(
        monkeypatch, check):
    """M = 0 is a ConfigError from the one path loop, not a division by
    zero or a log of zero after it."""
    _no_batches(monkeypatch)
    with pytest.raises(ConfigError, match="at least one sample path"):
        LADDER_CHECKS[check]((0.2, 0.1, 0.05), M=0)


def test_laplace_flags_every_one_sample_rung():
    """One path per rung gives no CI: each rung is flagged, with no
    degrees-of-freedom warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = LADDER_CHECKS["laplace_check"]((0.2, 0.1, 0.05), M=1)
    assert report.flagged.all()
    assert np.isfinite(report.lhs_values).all()


def test_controlled_initial_momentum_is_checked_before_any_path(
        monkeypatch):
    _no_batches(monkeypatch)
    u = ControlSignal(T=0.5, values=np.zeros(17))
    with pytest.raises(ConfigError, match=r"p0 must have shape \(1,\)"):
        controlled_convergence(P1, u, (0.3,), M=4, seed=0, p0=[0.0, 1.0])


@pytest.mark.parametrize("check", ["h_eps_scaling", "controlled_convergence",
                                   "laplace_check"])
def test_batch_split_reaches_no_result(monkeypatch, check):
    """Every path's value lands in one array that one rung estimate
    reduces, so the rows drawn per batch change no result bit: neither a
    metric nor a Laplace rung's value or flag."""
    u = ControlSignal(T=0.5, values=np.sin(np.linspace(0, 0.5, 33)))
    run = {"h_eps_scaling": lambda: h_eps_scaling(
               P2, (0.2, 0.1, 0.05), M=300, T=2e-4, seed=7).metric_values,
           "controlled_convergence": lambda: controlled_convergence(
               P2, u, (0.2, 0.1, 0.05), M=60, seed=5).metric_values,
           "laplace_check": lambda: _laplace_rungs(laplace_check(
               P1, "2*(q1 - 0.5)^2", (0.25, 0.125), M=300, T=0.5, seed=3,
               N=16))}[check]
    results, used = [], []
    for rows in (250, 64, 7):
        monkeypatch.setattr(strongdamp.sde, "batch_rows",
                            lambda steps, rows=rows: used.append(rows) or rows)
        results.append(run())
    assert set(used) == {250, 64, 7}
    for got in results[1:]:
        assert got.tobytes() == results[0].tobytes()


def _laplace_rungs(rep):
    return np.concatenate([rep.lhs_values, rep.flagged.astype(float)])


def test_rung_mean_matches_statistics():
    """The one rung rule: a compensated mean and a 1.96 sqrt(var/n)
    half-width, as statistics computes them."""
    x = np.random.default_rng(11).exponential(2.0, size=500)
    mean, ci = rung_mean(x)
    assert mean == statistics.fmean(x)
    assert ci / 1.96 == pytest.approx(
        statistics.stdev(x) / math.sqrt(x.size), rel=1e-13)


def test_rung_mean_edges():
    mean, ci = rung_mean(np.array([]))
    assert math.isnan(mean) and math.isnan(ci)
    assert rung_mean(np.array([2.5])) == (2.5, math.inf)


def test_rung_log_mean_of_constant_weights_is_exact():
    log_mean, rel_se = rung_log_mean(np.full(8, -3.0))
    assert log_mean == -3.0
    assert rel_se == 0.0
    log_mean, rel_se = rung_log_mean(np.array([-3.0]))
    assert log_mean == -3.0 and rel_se == math.inf


def test_rung_log_mean_survives_weights_beyond_float_range():
    """A log-sum-exp: log weights of 1000 neither overflow nor lose the
    relative error of the normalized weights."""
    logw = np.array([1000.0, 1000.0 + math.log(3.0)])
    log_mean, rel_se = rung_log_mean(logw)
    assert log_mean == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)
    # weights 1/3 and 1 after normalization: mean 2/3, std err 1/3
    assert rel_se == pytest.approx(0.5, rel=1e-14)


def test_fit_line_through_points():
    slope, intercept, r2 = fit_line([0.1, 0.2, 0.4], [1.3, 1.6, 2.2])
    assert slope == pytest.approx(3.0, rel=1e-12)
    assert intercept == pytest.approx(1.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, rel=1e-12)
    slope, intercept, r2 = fit_line([0.1], [0.8])
    assert math.isnan(slope) and intercept == 0.8 and math.isnan(r2)
    with pytest.raises(NumericalError, match="degenerate"):
        fit_line([0.1, 0.2], [0.5, -math.inf])
