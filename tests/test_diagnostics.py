import json

import numpy as np
import pytest

from qri import wave2d
from qri.diagnostics import (
    pick_isolated_index,
    record_to_dict,
    run_angle_bound_check,
    run_angle_identity_check,
    run_perturbation_trials,
    run_resolvent_spot_check,
    run_sandwich_trials,
    shift_at_distance,
    shift_with_ratio,
)
from qri.oracle import select_target_pair
from qri.solver import ConvergenceRecord

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


@pytest.mark.parametrize("steps", [0, -1])
def test_angle_checks_reject_step_count(steps):
    p = wave2d(4)
    with pytest.raises(ValueError, match="steps must be at least 1"):
        run_angle_identity_check(p, PROBE, steps=steps)
    with pytest.raises(ValueError, match="max_steps must be at least 1"):
        run_angle_bound_check(p, PROBE, max_steps=steps)


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
        i1, i2 = select_target_pair(lams, sigma)
        assert i1 == 0
        achieved = abs(lams[i1] - sigma) / abs(lams[i2] - sigma)
        assert achieved <= ratio


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
    with pytest.raises(RuntimeError):
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


def test_resolvent_spot_check(p_wave2d4):
    points = run_resolvent_spot_check(p_wave2d4, PROBE, n_points=4, seed=1)
    assert len(points) == 4
    for pt in points:
        assert pt.error <= 1e-12


def test_perturbation_trials():
    trials = run_perturbation_trials(n=30, k=6, trials=10, seed=0)
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


def test_record_to_dict_json_safe():
    rec = ConvergenceRecord(
        outer_iter=3,
        subspace_dim=4,
        ritz_values=[1.0 + 2.0j],
        relres=[1e-5],
        inner_iters=7,
        inner_relres=1e-4,
    )
    d = record_to_dict(rec)
    assert d["ritz_values"] == [{"re": 1.0, "im": 2.0}]
    assert d["outer_iter"] == 3
    json.dumps(d)


def test_record_to_dict_drops_arrays():
    d = record_to_dict({"x": np.ones(3), "val": np.float64(2.0)})
    assert d["x"] is None
    assert d["val"] == 2.0
    json.dumps(d)
