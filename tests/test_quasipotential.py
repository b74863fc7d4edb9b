import math
import sys

import numpy as np
import pytest

from strongdamp import action
from strongdamp.errors import ConfigError
from strongdamp.fields import load_preset
from strongdamp.quasipotential import (DEFAULT_LADDER,
                                       check_action_equivalence,
                                       gradient_case_oracle,
                                       minimize_action_fixed_T,
                                       quasipotential,
                                       quasipotential_boundary)


P1 = load_preset("p1")
P2 = load_preset("p2")
LADDER = np.array([1.0, 2.0, 4.0, 8.0])


def test_fixed_time_oracle_linear_drift():
    """For b = -q, alpha = sigma = 1 the fixed-T minimum from 0 to y is
    y^2 (e^{2T} - 1) / (4 sinh^2 T), attained on a sinh profile."""
    T, y = 1.0, 1.0
    res = minimize_action_fixed_T(P1, np.zeros(1), np.array([y]), T, N=128)
    expect = y**2 * (np.exp(2 * T) - 1) / (4 * np.sinh(T) ** 2)
    assert res.converged
    assert res.value == pytest.approx(expect, rel=1e-3)
    # interior profile follows sinh(t)/sinh(T)
    t = res.path.times
    np.testing.assert_allclose(res.path.points[:, 0],
                               np.sinh(t) / np.sinh(T), atol=2e-3)


def test_longer_T_approaches_quasipotential():
    vals = [minimize_action_fixed_T(P1, [0.0], [1.0], T).value
            for T in (1.0, 4.0)]
    assert vals[1] < vals[0]
    assert vals[1] == pytest.approx(1.0, rel=5e-3)


def test_quasipotential_matches_gradient_oracle():
    # heavy friction slows the uphill crawl, so the slow preset needs the
    # full default T ladder while the unit-friction one converges by T = 8
    for p, q, ladder in ((P1, [1.0], LADDER), (P2, [0.7], None)):
        res = quasipotential(p, q, N=32, T_ladder=ladder)
        assert res.converged
        assert res.value == pytest.approx(gradient_case_oracle(p, q),
                                          rel=2e-3)


def test_oracle_value_is_twice_potential_drop():
    # U = q^2/2 everywhere here, so the oracle is q^2 exactly
    assert gradient_case_oracle(P2, [1.3]) == pytest.approx(1.69)


@pytest.mark.parametrize("preset, q", [("p1", [1.0, 2.0]), ("p3", [1.0]),
                                       ("p1", 1.0)],
                         ids=["d2_on_p1", "d1_on_p3", "scalar_on_p1"])
def test_oracle_rejects_point_of_wrong_shape(preset, q):
    d = {"p1": 1, "p3": 2}[preset]
    with pytest.raises(ConfigError, match=rf"q must have shape \({d},\)"):
        gradient_case_oracle(load_preset(preset), q)


def test_fixed_time_solve_checks_its_request():
    for args, kw in ((([0.0, 0.0], [1.0], 1.0), {}),
                     (([0.0], [1.0], 1.0), {"N": 8}),
                     (([0.0], [1.0], 0.0), {}),
                     (([0.0], [1.0], 1.0), {"init": np.zeros((5, 2))})):
        with pytest.raises(ConfigError):
            minimize_action_fixed_T(P1, *args, **kw)


def test_endpoint_must_stay_in_box():
    with pytest.raises(ConfigError):
        quasipotential(P1, [9.0], N=32, T_ladder=LADDER)


def test_ladder_must_increase():
    with pytest.raises(ConfigError):
        quasipotential(P1, [1.0], N=32, T_ladder=np.array([2.0, 1.0]))
    with pytest.raises(ConfigError):
        quasipotential(P1, [1.0], N=32, T_ladder=np.array([-1.0, 2.0]))


def test_refinement_does_not_worsen():
    coarse = quasipotential(P1, [1.0], N=32, T_ladder=LADDER, refine=False)
    fine = quasipotential(P1, [1.0], N=32, T_ladder=LADDER, refine=True)
    assert fine.value <= coarse.value + 1e-12
    assert fine.T_star > 0


def test_travel_time_search_finds_interior_optimum():
    """p1 from 0.5 to 1: the fixed-T minimum is
    V(T) = (1 - 0.5 e^{-T})^2 / (1 - e^{-2T}), smallest (0.75) at
    T* = log 2, between the first two rungs of the default ladder; the
    ladder alone reads 0.768 at T = 0.5."""
    res = quasipotential(P1, [1.0], q_start=[0.5])
    assert res.value == pytest.approx(0.75, rel=1e-5)
    assert res.T_star == pytest.approx(math.log(2.0), rel=2e-2)


def _solve_spy(monkeypatch):
    """List that records the travel time of every fixed-T solve."""
    module = sys.modules["strongdamp.quasipotential"]
    solve = module.minimize_action_fixed_T
    times = []

    def spy(p, q_start, q_end, T, **kw):
        times.append(T)
        return solve(p, q_start, q_end, T, **kw)

    monkeypatch.setattr(module, "minimize_action_fixed_T", spy)
    return times


@pytest.mark.parametrize("q_start", [None, [0.0]], ids=["default", "explicit"])
def test_converged_top_rung_from_rest_ends_the_search(monkeypatch, q_start):
    """p2 from O = 0: the top rung (T = 64) is best and converged, so the
    ladder's 8 solves are all; an explicit start at O counts as O."""
    times = _solve_spy(monkeypatch)
    res = quasipotential(P2, [1.0], q_start=q_start)
    assert len(times) == 8
    assert res.converged and res.T_star == 64.0


def test_top_rung_away_from_rest_is_still_searched(monkeypatch):
    """p2 from 0.5 (not a rest point) to -1: the top rung is best, but
    V_T need not fall in T from there, so the search runs."""
    times = _solve_spy(monkeypatch)
    res = quasipotential(P2, [-1.0], q_start=[0.5])
    assert res.T_star == 64.0
    assert len(times) > 8


def test_unconverged_top_rung_from_rest_is_still_searched(monkeypatch):
    # minimize_path binds the dict as its default: set the item, not the name
    monkeypatch.setitem(action.LBFGS_ACTION, "maxiter", 3)
    ladder = [1.0, 2.0, 4.0]
    rungs = [minimize_action_fixed_T(P2, [0.0], [1.0], T) for T in ladder]
    assert int(np.argmin([r.value for r in rungs])) == 2
    assert not rungs[2].converged
    times = _solve_spy(monkeypatch)
    quasipotential(P2, [1.0], T_ladder=ladder)
    assert len(times) > 3


@pytest.mark.parametrize("preset, ends", [
    ("p1", ([1.0], [-0.6])), ("p2", ([1.0], [-1.3])),
    ("p3", ([1.0, 0.0], [-0.5, 0.8])), ("p1_tilted", ([-1.0], [1.0]))])
def test_fixed_time_action_from_rest_does_not_rise_with_T(preset, ends):
    """The premise of ending the search at a top rung: from O, waiting is
    free, so the fixed-T minimum does not increase along the default
    ladder (up to rounding)."""
    p = load_preset(preset)
    for q in ends:
        values = np.array([minimize_action_fixed_T(p, p.O, q, T).value
                           for T in np.geomspace(*DEFAULT_LADDER)])
        assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1]))


def test_action_form_equivalence():
    standard, alt, gap = check_action_equivalence(P2, [1.0], N=32)
    assert gap < 1e-2
    assert standard.value == pytest.approx(1.0, rel=1e-2)
    assert alt.value == pytest.approx(1.0, rel=1e-2)


def test_path_runs_from_start_to_end():
    res = quasipotential(P1, [1.0], q_start=[0.0], N=32, T_ladder=LADDER)
    np.testing.assert_allclose(res.path.points[0], [0.0], atol=1e-12)
    np.testing.assert_allclose(res.path.points[-1], [1.0], atol=1e-12)
    assert res.grad_norm < 1e-5 * (1 + abs(res.value))


def test_boundary_scan_unit_circle():
    """p3 has V = |q|^2 = 1 on its whole boundary, the unit circle found
    by marching squares; every sample sits on it and scans to 1."""
    p3 = load_preset("p3")
    scan = quasipotential_boundary(p3, boundary_samples=4, grid_n=61, N=16,
                                   T_ladder=[2.0, 4.0, 8.0], refine=False)
    assert scan.points.shape == (4, 2)
    np.testing.assert_allclose(np.linalg.norm(scan.points, axis=1), 1.0,
                               atol=5e-3)
    np.testing.assert_allclose(scan.values, 1.0, rtol=2e-2)
    assert scan.V0 == scan.values[scan.index] == scan.values.min()
    np.testing.assert_array_equal(scan.q_star, scan.points[scan.index])
    assert scan.s[0] == 0.0 and np.all(np.diff(scan.s) > 0)


def test_boundary_scan_tilted_well_picks_low_side():
    """p1_tilted: V = 2 (U(q) - U(O)) is 0.64 at q* = -1 and 1.44 at +1."""
    scan = quasipotential_boundary(load_preset("p1_tilted"), N=16,
                                   T_ladder=[2.0, 4.0, 8.0])
    np.testing.assert_allclose(scan.points[:, 0], [-1.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(scan.values, [0.64, 1.44], rtol=1e-2)
    assert scan.index == 0
    assert scan.V0 == pytest.approx(0.64, rel=1e-2)
    np.testing.assert_allclose(scan.q_star, [-1.0], atol=1e-6)
    np.testing.assert_allclose(scan.s, [0.0, 2.0], atol=1e-6)
