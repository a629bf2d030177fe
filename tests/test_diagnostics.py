import numpy as np
import pytest

from qri import QepProblem, wave2d
import qri.diagnostics as diagnostics
from qri.diagnostics import (
    pick_isolated_index,
    run_angle_bound_check,
    run_angle_identity_check,
    run_perturbation_trials,
    run_resolvent_spot_check,
    run_sandwich_trials,
    shift_at_distance,
    shift_with_ratio,
)

PROBE = 0.1234 + 0.4321j


def test_pick_isolated_index():
    assert pick_isolated_index(np.array([0.0, 0.1, 5.0])) == 2
    assert pick_isolated_index(np.array([1.0j, 1.1j, -4.0])) == 2


def test_pick_isolated_index_rounding_tie():
    # the outer two values are mirror images, as in a spectrum symmetric
    # about the imaginary axis; a few ulps of rounding must not decide
    # which of them is picked
    lams = np.array([3.0 + 1.0j, 1.0, -1.0, -(3.0 + 1e-15) + 1.0j])
    assert pick_isolated_index(lams) == 0
    assert pick_isolated_index(lams[::-1]) == 0


@pytest.mark.parametrize("steps", [0, -1, 2.5])
def test_angle_checks_reject_step_count(steps):
    # named before the oracle's eigendecomposition; a float step count
    # used to reach the bound's run as max_subspace = 3.5
    p = wave2d(4)
    rule = "must be an integer, got 2.5" if steps == 2.5 else "must be at least 1"
    with pytest.raises(ValueError, match="steps " + rule):
        run_angle_identity_check(p, PROBE, steps=steps)
    with pytest.raises(ValueError, match="max_steps " + rule):
        run_angle_bound_check(p, PROBE, max_steps=steps)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_angle_checks_reject_seed(seed, lu_builds):
    # named before the oracle's eigendecomposition, which builds an LU
    p = wave2d(4)
    with pytest.raises(ValueError, match="seed must be"):
        run_angle_identity_check(p, PROBE, steps=3, seed=seed)
    with pytest.raises(ValueError, match="seed must be"):
        run_angle_bound_check(p, PROBE, max_steps=3, seed=seed)
    assert lu_builds == []


def test_trial_drivers_reject_counts():
    p = wave2d(4)
    with pytest.raises(ValueError, match="n_points must be at least 1, got 0"):
        run_resolvent_spot_check(p, PROBE, n_points=0)
    with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
        run_perturbation_trials(trials=0)
    with pytest.raises(ValueError, match="k must be at least 0, got -1"):
        run_perturbation_trials(k=-1, trials=2)
    with pytest.raises(ValueError, match="trials must be at least 1, got -1"):
        run_sandwich_trials(p, trials=-1)
    # non-integer counts are named too: n_points = 2.5 used to return 3
    # points, and trials = 2.5 failed as a TypeError after the sandwich
    # trials' eigendecompositions
    with pytest.raises(ValueError, match="n_points must be an integer, got 2.5"):
        run_resolvent_spot_check(p, PROBE, n_points=2.5)
    with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
        run_perturbation_trials(trials=2.5)
    with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
        run_sandwich_trials(p, trials=2.5)
    # a subspace of all of C^n leaves nothing to expand: k = n used to
    # fail as HypothesisViolated, k > n as Breakdown
    for k in (5, 10):
        with pytest.raises(ValueError, match=f"k must be at most 4, got {k}"):
            run_perturbation_trials(n=5, k=k, trials=2)
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        run_perturbation_trials(k=2.5, trials=2)
    # a negative seed is named instead of failing in numpy, and before
    # the resolvent's and the sandwich's eigendecompositions
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        run_resolvent_spot_check(p, PROBE, seed=-1)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        run_perturbation_trials(trials=2, seed=-1)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        run_sandwich_trials(p, trials=2, seed=-1)
    # checked before any eigendecomposition: at 5 the inexact solve
    # returned zero and failed in the angle, at 0 every trial ran to the
    # step budget, and a NaN ratio failed in the shift placement
    for bad in (0.0, 1.0, 5.0, np.nan):
        with pytest.raises(ValueError, match=r"gmres_tol must lie in \(0, 1\)"):
            run_sandwich_trials(p, trials=2, gmres_tol=bad)
    for bad in (0.0, -0.01, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"ratio must lie in \(0, inf\)"):
            run_sandwich_trials(p, trials=2, ratio=bad)
    # non-real values are named instead of failing as a TypeError
    for bad in ("0.01", 0.01 + 0j, None):
        with pytest.raises(ValueError, match="ratio must be a real number"):
            run_sandwich_trials(p, trials=2, ratio=bad)
        with pytest.raises(ValueError, match="gmres_tol must be a real number"):
            run_sandwich_trials(p, trials=2, gmres_tol=bad)


def test_shift_at_distance():
    lams = np.array([0.0, 1.0, 10.0], dtype=complex)
    sigma = shift_at_distance(lams, 2, 2.0)
    assert abs(lams[2] - sigma) == pytest.approx(2.0)
    assert np.abs(lams - sigma).argmin() == 2
    # target pinned between neighbors: a large distance must fail
    with pytest.raises(ValueError):
        shift_at_distance(np.array([0.0, 0.5, 1.0], dtype=complex), 1, 10.0)


def test_shift_with_ratio():
    lams = np.array([0.0, 1.0, 3.0], dtype=complex)
    for ratio in (0.1, 0.01):
        sigma = shift_with_ratio(lams, 0, ratio)
        i1, i2 = np.argsort(np.abs(lams - sigma))[:2]
        assert i1 == 0
        achieved = abs(lams[i1] - sigma) / abs(lams[i2] - sigma)
        assert achieved <= ratio


def test_sandwich_needs_two_finite_eigenvalues():
    # n = 1 with M = 0 has one finite eigenvalue, -1, and no second one
    # to take the distance ratio against
    p = QepProblem([[0.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="at least two finite eigenvalues"):
        run_sandwich_trials(p, sigma=0.5, trials=2)


def test_angle_identity_driver(p_wave2d4):
    report = run_angle_identity_check(p_wave2d4, PROBE, steps=5, seed=0)
    assert len(report.steps) == 5
    sins = [s.sin_before for s in report.steps]
    for step in report.steps:
        assert step.gap <= 1e-12
        assert 0.0 <= step.factor <= 1.0 + 1e-13
    # each expansion can only shrink the angle to the target
    for a, b in zip(sins, sins[1:]):
        assert b <= a * (1.0 + 1e-13)
    assert report.product_gap <= 1e-10
    assert report.final_sin <= sins[0] * (1.0 + 1e-13)


def test_angle_identity_step_count_guard(p_example1):
    # the run's basis holds at most n = 3 vectors, so at most 2 expansion
    # steps can be checked; more are refused by name before the run
    with pytest.raises(ValueError, match="steps must be at most 2, got 25"):
        run_angle_identity_check(p_example1, 0.9, steps=25, seed=0)


def test_angle_bound_driver(p_wave2d4):
    steps = run_angle_bound_check(p_wave2d4, PROBE, max_steps=10, seed=0)
    assert len(steps) >= 1
    for s in steps:
        assert s.lhs <= s.rhs + 1e-12
        assert s.xi >= 0.0
        assert 0.0 <= s.sin_target <= 1.0 + 1e-13


def test_angle_bound_driver_never_restarts():
    # the bound compares consecutive expansions of one growing basis; this
    # shift takes the run past exact mode's default restart size of 20
    steps = run_angle_bound_check(wave2d(6), -0.5 + 4.0j, max_steps=25, seed=0)
    ks = [s.k for s in steps]
    assert len(ks) > 20
    assert ks == list(range(ks[0], ks[0] + len(ks)))


def test_angle_bound_driver_stops_at_sine_floor(monkeypatch):
    # once the basis holds the target eigenvector to the sine floor the
    # run stops, without a record for that step: with the real floor
    # wave2d(4) gives 10 records, ending at sin_target 5.2e-8; with a
    # floor of 1e-2 it gives 5, ending at 2.9e-2
    p = wave2d(4)
    full = run_angle_bound_check(p, PROBE, max_steps=40)
    monkeypatch.setattr(diagnostics, "BOUND_SIN_FLOOR", 1e-2)
    cut = run_angle_bound_check(p, PROBE, max_steps=40)
    assert 1 <= len(cut) < len(full)
    assert all(s.sin_target > 1e-2 for s in cut)


def test_resolvent_spot_check(p_wave2d4):
    points = run_resolvent_spot_check(p_wave2d4, PROBE, n_points=4, seed=1)
    assert len(points) == 4
    for pt in points:
        assert pt.error <= 1e-12


def test_perturbation_trials():
    # a small subspace and one of most of the space, sized up front
    for n, k in ((30, 6), (80, 60)):
        trials = run_perturbation_trials(n=n, k=k, trials=10, seed=0)
        assert len(trials) == 10
        for t in trials:
            assert t.eps_recovered == pytest.approx(t.eps, rel=1e-12)
            assert t.eps_tilde >= 0.0
            assert t.gap_scale <= 1e-12
            assert t.gap_direction <= 1e-12


def test_sandwich_trials_summary(p_wave2d4):
    summary = run_sandwich_trials(p_wave2d4, trials=10, seed=0)
    assert summary.trials == 10
    assert len(summary.results) == 10
    assert 0 <= summary.hypothesis_count <= 10
    assert 0 <= summary.violation_count <= summary.hypothesis_count
    assert 0.0 <= summary.violation_rate <= 1.0
    achieved = abs(summary.ratio)
    assert achieved <= 0.01 + 1e-12

