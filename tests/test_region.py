from dataclasses import replace

import numpy as np
import pytest

from criotq import (BETA_CEIL, BETA_FLOOR, Constraints, InvalidParameterError,
                    SensingModel, activity_factor, critical_beta, critical_lambda,
                    evaluate_qos, feasibility_check, optimize_policy_grid,
                    params_with_activity, sweep, synchronized_baseline)
from conftest import make_params

ANCHOR_CONSTRAINTS = Constraints(max_drop=0.1, max_interference=0.1)


def test_constraints_validation():
    with pytest.raises(InvalidParameterError):
        Constraints(max_drop=-0.1, max_interference=0.1)
    with pytest.raises(InvalidParameterError):
        Constraints(max_drop=0.1, max_interference=1.5)


def test_feasibility_check_baseline(baseline_params):
    ok, report = feasibility_check(baseline_params, ANCHOR_CONSTRAINTS)
    assert ok is True
    assert report.feasible is True


def test_feasibility_check_certain_false_alarm():
    ok, report = feasibility_check(make_params(p_false_alarm=1.0, lam=0.01),
                                   ANCHOR_CONSTRAINTS)
    assert ok is False
    assert report.drop_prob == 1.0


def test_params_with_activity():
    params = make_params()
    tilted = params_with_activity(params, 0.75)
    assert tilted.pnp.mu_on == 1.0
    assert tilted.pnp.mu_off == pytest.approx(3.0, rel=1e-12)
    assert activity_factor(tilted.pnp) == pytest.approx(0.75, abs=1e-12)
    assert params.pnp.mu_off == 1.0  # original untouched
    with pytest.raises(InvalidParameterError):
        params_with_activity(params, 0.0)
    with pytest.raises(InvalidParameterError):
        params_with_activity(params, 1.0)


def test_critical_beta_baseline_bracket(baseline_params):
    res = critical_beta(baseline_params, ANCHOR_CONSTRAINTS, tol=1e-3)
    assert res.value is not None
    assert res.feasible_at_floor and res.monotone and not res.capped
    assert BETA_FLOOR < res.value < BETA_CEIL
    assert res.report.feasible is True
    assert res.report.beta == pytest.approx(res.value, rel=1e-12)
    ok_above, _ = feasibility_check(
        params_with_activity(baseline_params, min(res.value + 2e-3, BETA_CEIL)),
        ANCHOR_CONSTRAINTS)
    assert ok_above is False
    with pytest.raises(InvalidParameterError):
        critical_beta(baseline_params, ANCHOR_CONSTRAINTS, tol=0.0)


def test_critical_beta_agrees_with_grid_scan():
    """Bisection against a brute-force fine-grid scan of the same predicate."""
    rng = np.random.default_rng(55107)
    grid = np.linspace(BETA_FLOOR, BETA_CEIL, 501)
    spacing = float(grid[1] - grid[0])
    checked_bisections = 0
    for _ in range(8):
        params = make_params(
            capacity_k=4,
            lam=float(rng.uniform(0.002, 0.012)),
            p_detect=float(rng.uniform(0.5, 1.0)),
            p_false_alarm=float(rng.uniform(0.0, 0.5)),
            theta=float(rng.uniform(0.0, 0.5)),
            xi=float(rng.uniform(0.1, 0.9)))
        cons = Constraints(max_drop=float(rng.uniform(0.1, 0.6)),
                           max_interference=float(rng.uniform(0.03, 0.2)))
        res = critical_beta(params, cons, tol=1e-3)
        flags = [feasibility_check(params_with_activity(params, float(b)), cons)[0]
                 for b in grid]
        if not flags[0]:
            assert res.value is None
            continue
        if all(flags):
            assert res.capped
            continue
        oracle = float(grid[flags.index(False) - 1])
        if res.monotone and not res.capped:
            assert abs(res.value - oracle) <= spacing + 1e-3 + 1e-9
            checked_bisections += 1
        else:
            # conservative answer must not overshoot the scan
            assert res.value <= oracle + spacing + 1e-9
    assert checked_bisections >= 4


def test_critical_lambda_baseline(baseline_params):
    res = critical_lambda(baseline_params, ANCHOR_CONSTRAINTS, tol=1e-4)
    assert res.value is not None and res.value > 0.001
    assert not res.capped
    assert res.report.feasible is True
    bumped = replace(baseline_params,
                     traffic=replace(baseline_params.traffic, lam=res.value + 2e-4))
    assert feasibility_check(bumped, ANCHOR_CONSTRAINTS)[0] is False


def test_critical_lambda_caps_when_everything_is_feasible(baseline_params):
    lax = Constraints(max_drop=1.0, max_interference=1.0)
    res = critical_lambda(baseline_params, lax, tol=1e-3)
    assert res.capped is True
    assert res.value == pytest.approx(0.001 * 2 ** 20, rel=1e-12)
    assert res.report.feasible is True
    assert res.report.offered_load == pytest.approx(20 * res.value, rel=1e-12)


def test_critical_lambda_zero_under_certain_false_alarm():
    res = critical_lambda(make_params(p_false_alarm=1.0), ANCHOR_CONSTRAINTS)
    # lam = 0 is vacuously fine, any positive rate blocks everything
    assert res.feasible_at_floor is True
    assert res.value is not None and res.value <= 1e-3


def test_critical_beta_increases_with_detection(baseline_params):
    lo = critical_beta(make_params(p_detect=0.85, lam=0.004), ANCHOR_CONSTRAINTS)
    hi = critical_beta(make_params(p_detect=0.95, lam=0.004), ANCHOR_CONSTRAINTS)
    assert lo.value is not None and hi.value is not None
    assert hi.value >= lo.value - 1e-3


def test_critical_lambda_decreases_with_false_alarm():
    lo_noise = critical_lambda(make_params(p_false_alarm=0.05), ANCHOR_CONSTRAINTS)
    hi_noise = critical_lambda(make_params(p_false_alarm=0.30), ANCHOR_CONSTRAINTS)
    assert lo_noise.value is not None and hi_noise.value is not None
    assert hi_noise.value <= lo_noise.value + 1e-3


def test_sweep_matches_pointwise_search(baseline_params):
    rows = sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="detection",
                 grid=[0.9], target="beta_c", tol=1e-3)
    single = critical_beta(baseline_params, ANCHOR_CONSTRAINTS, tol=1e-3)
    assert len(rows) == 1
    assert rows[0].swept_value == 0.9
    assert rows[0].critical_value == pytest.approx(single.value, abs=1e-12)


def test_sweep_preserves_grid_order(baseline_params):
    grid = [0.95, 0.85, 0.9]
    rows = sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="detection",
                 grid=grid, target="beta_c")
    assert [r.swept_value for r in rows] == grid


def test_sweep_false_alarm_axis(baseline_params):
    rows = sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="false-alarm",
                 grid=[0.0, 0.4], target="lambda_c", tol=1e-3)
    assert all(r.critical_value is not None for r in rows)
    assert rows[1].critical_value <= rows[0].critical_value + 1e-3


def test_sweep_rejects_bad_arguments(baseline_params):
    with pytest.raises(InvalidParameterError):
        sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="snr", grid=[0.9],
              target="beta_c")
    with pytest.raises(InvalidParameterError):
        sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="detection", grid=[0.9],
              target="rho_c")
    with pytest.raises(InvalidParameterError):
        sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="detection", grid=[],
              target="beta_c")


def test_synchronized_baseline_bounds_perfect_sensing_cell(baseline_params):
    base = synchronized_baseline(baseline_params)
    assert base.interference_prob <= 1e-12
    perfect = replace(baseline_params,
                      sensing=SensingModel(p_detect=1.0, p_false_alarm=0.0))
    full = evaluate_qos(perfect)
    assert base.drop_prob <= full.drop_prob + 1e-12
    assert base.wait_slot_avg <= full.wait_slot_avg + 1e-12


def test_synchronized_baseline_converges_for_short_slots():
    # With slots much shorter than the OFF periods a transmission almost
    # always fits, so the collision penalty vanishes.
    params = make_params(slot_d=0.05, lam=0.02)
    base = synchronized_baseline(params)
    perfect = replace(params, sensing=SensingModel(p_detect=1.0, p_false_alarm=0.0))
    full = evaluate_qos(perfect)
    assert base.wait_slot_avg == pytest.approx(full.wait_slot_avg, rel=0.02)
    assert base.drop_prob == pytest.approx(full.drop_prob, rel=0.05, abs=1e-9)


def test_optimize_policy_grid(baseline_params):
    best, table = optimize_policy_grid(baseline_params, ANCHOR_CONSTRAINTS,
                                       theta_grid=[0.2, 0.8], xi_grid=[0.3, 0.7])
    assert len(table) == 4
    assert best is not None and best[0] in (0.2, 0.8) and best[1] in (0.3, 0.7)
    feasible_waits = [rep.wait_slot_avg for _, _, ok, rep in table
                      if ok and rep.wait_slot_avg is not None]
    best_rep = next(rep for th, x, ok, rep in table if (th, x) == best)
    assert best_rep.wait_slot_avg == min(feasible_waits)
    none_best, _ = optimize_policy_grid(
        make_params(lam=0.05), Constraints(max_drop=0.0, max_interference=0.0),
        theta_grid=[0.2], xi_grid=[0.5])
    assert none_best is None
