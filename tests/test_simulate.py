import math

import numpy as np
import pytest

from criotq import (Action, InvalidParameterError, Phase, PnpModel, SimConfig,
                    activity_factor, build_transition_matrix,
                    departure_distributions, estimate_slot_kernel,
                    estimate_transition_row, evaluate_qos,
                    interference_probability, run_simulation, slot_kernel,
                    stationary_distribution)
from conftest import make_params


@pytest.fixture(scope="module")
def anchor_run():
    config = SimConfig(params=make_params(), horizon_slots=200_000, seed=999331)
    return run_simulation(config)


def test_config_validation():
    params = make_params()
    with pytest.raises(InvalidParameterError):
        SimConfig(params=params, horizon_slots=0, seed=1)
    with pytest.raises(InvalidParameterError):
        SimConfig(params=params, horizon_slots=100, seed=1, warmup_slots=100)
    with pytest.raises(InvalidParameterError):
        SimConfig(params=params, horizon_slots=100, seed=1, replications=0)
    assert SimConfig(params=params, horizon_slots=1000, seed=1).resolved_warmup == 100


def test_same_seed_reproduces_bit_for_bit():
    config = SimConfig(params=make_params(lam=0.01), horizon_slots=20_000, seed=4242)
    a = run_simulation(config)
    b = run_simulation(config)
    assert a.drop_prob_hat == b.drop_prob_hat
    assert a.mean_sojourn_hat == b.mean_sojourn_hat
    assert a.interference_hat == b.interference_hat
    assert a.counts == b.counts
    assert np.array_equal(a.slot_state_histogram, b.slot_state_histogram)
    assert np.array_equal(a.post_departure_histogram, b.post_departure_histogram)


def test_different_seed_differs():
    params = make_params(lam=0.01)
    a = run_simulation(SimConfig(params=params, horizon_slots=20_000, seed=1))
    b = run_simulation(SimConfig(params=params, horizon_slots=20_000, seed=2))
    assert not np.array_equal(a.slot_state_histogram, b.slot_state_histogram)


def test_count_identities(anchor_run):
    c = anchor_run.counts
    assert c.admitted == c.generated - c.dropped
    assert 0 <= c.served <= c.admitted
    assert c.generated > 0


def test_histograms_are_pmfs(anchor_run):
    assert anchor_run.slot_state_histogram.sum() == pytest.approx(1.0, abs=1e-12)
    assert anchor_run.post_departure_histogram.sum() == pytest.approx(1.0, abs=1e-12)
    assert anchor_run.slot_state_histogram.min() >= 0.0
    assert anchor_run.generator == "PCG64"


def test_perfect_sensing_never_interferes():
    params = make_params(p_detect=1.0, p_false_alarm=0.0, lam=0.01)
    res = run_simulation(SimConfig(params=params, horizon_slots=30_000, seed=5))
    assert res.interference_hat == 0.0
    assert res.counts.served > 0


def test_always_idle_policy_serves_nothing():
    params = make_params(theta=1.0, lam=0.01)
    res = run_simulation(SimConfig(params=params, horizon_slots=20_000, seed=6))
    assert res.counts.served == 0
    assert res.carried_load_hat == 0.0
    assert res.charge_fraction_hat == 0.0
    assert res.interference_hat == 0.0
    assert math.isnan(res.mean_sojourn_hat)
    assert res.drop_prob_hat > 0.9  # buffer fills once and never drains


def test_zero_arrivals():
    res = run_simulation(SimConfig(params=make_params(lam=0.0),
                                   horizon_slots=5_000, seed=7))
    assert res.counts.generated == 0
    assert res.drop_prob_hat == 0.0
    assert math.isnan(res.mean_sojourn_hat)
    # all mass in the empty-queue block
    assert res.slot_state_histogram[:4].sum() == pytest.approx(1.0, abs=1e-12)


def test_phase_occupancy_matches_activity_factor():
    pnp_kwargs = dict(mu_on=2.0, mu_off=1.0)
    params = make_params(**pnp_kwargs, lam=0.001)
    res = run_simulation(SimConfig(params=params, horizon_slots=150_000, seed=31217))
    beta = activity_factor(PnpModel(**pnp_kwargs))
    on_mass = sum(res.slot_state_histogram[idx]
                  for idx, (_, phi, _) in enumerate(res.space.states)
                  if phi == int(Phase.ON))
    assert on_mass == pytest.approx(beta, abs=0.01)


def test_charge_fraction_matches_analytic(anchor_run):
    # Closed form: phase-averaged perceived-free mass times the policy coins.
    assert anchor_run.charge_fraction_hat == pytest.approx(0.2, abs=0.005)


def test_state_histogram_close_to_stationary_law(anchor_run):
    params = make_params()
    mu = stationary_distribution(build_transition_matrix(params))
    tv = 0.5 * float(np.abs(anchor_run.slot_state_histogram - mu.vector).sum())
    assert tv <= 0.02


def test_post_departure_histogram_matches_weighted_law(anchor_run):
    params = make_params()
    tm = build_transition_matrix(params)
    mu = stationary_distribution(tm)
    dd = departure_distributions(mu, tm.kernel, params.traffic, "arrival-weighted")
    tv = 0.5 * float(np.abs(anchor_run.post_departure_histogram - dd.delta).sum())
    assert tv <= 0.03


def test_interference_within_sampling_error(anchor_run):
    params = make_params()
    mu = stationary_distribution(build_transition_matrix(params))
    want = interference_probability(mu)
    assert abs(anchor_run.interference_hat - want) <= 4.0 * anchor_run.interference_se


def test_replication_coverage_at_moderate_load():
    """Batch-means intervals should cover the analytic drop probability.

    100 independent replications; each reports a point estimate and SE.
    At 3 SEs the expected miss count is well under 1, so 95 hits out of
    100 is a loose but discriminating bound.
    """
    params = make_params(lam=0.01)
    want = evaluate_qos(params).drop_prob
    config = SimConfig(params=params, horizon_slots=20_000, seed=260822,
                       warmup_slots=2_000, replications=100)
    res = run_simulation(config)
    hits = sum(1 for r in res.reps
               if abs(r.drop_prob_hat - want) <= 3.0 * r.drop_prob_se)
    assert hits >= 95, f"only {hits}/100 replications covered the analytic value"


def test_kernel_estimate_zero_slot_is_exact():
    est = estimate_slot_kernel(PnpModel(1.0, 1.0), 0.0, trials=1_000, seed=3)
    assert est.a00 == 1.0 and est.a11 == 1.0
    assert est.off_persist == 1.0 and est.on_persist == 1.0


def test_kernel_estimate_matches_closed_form():
    pnp = PnpModel(mu_on=1.3, mu_off=0.6)
    d = 0.8
    want = slot_kernel(pnp, d)
    est = estimate_slot_kernel(pnp, d, trials=200_000, seed=90817)
    for name in ("a00", "a01", "a10", "a11", "off_persist", "on_persist"):
        p = getattr(want, name)
        se = math.sqrt(p * (1.0 - p) / est.trials)
        assert abs(getattr(est, name) - p) <= 4.0 * se, name
    with pytest.raises(InvalidParameterError):
        estimate_slot_kernel(pnp, d, trials=0, seed=1)


def test_transition_row_without_arrivals_stays_put():
    params = make_params(lam=0.0)
    est = estimate_transition_row(params, (2, Phase.OFF, Action.IDLE),
                                  trials=20_000, seed=11)
    for idx, (j, _, _) in enumerate(est.space.states):
        if j != 2:
            assert est.pmf[idx] == 0.0
    assert est.pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_transition_row_collided_serve_never_clears():
    # Serving while the primary is ON can never complete a transmission.
    params = make_params(lam=0.0)
    est = estimate_transition_row(params, (2, Phase.ON, Action.SERVE),
                                  trials=20_000, seed=12)
    for idx, (j, _, _) in enumerate(est.space.states):
        if j < 2:
            assert est.pmf[idx] == 0.0


def test_transition_row_matches_analytic_row():
    params = make_params(lam=0.05)
    tm = build_transition_matrix(params)
    src = tm.space.index(1, int(Phase.OFF), int(Action.SERVE))
    est = estimate_transition_row(params, (1, Phase.OFF, Action.SERVE),
                                  trials=300_000, seed=260801)
    for dst in range(tm.space.size):
        p = tm.matrix[src, dst]
        # Count-space bound: 4 sigma plus discreteness slack so cells with
        # expected counts near zero admit a stray hit or two.
        tol_counts = 4.0 * math.sqrt(est.trials * p * (1.0 - p)) + 5.0
        assert abs(est.pmf[dst] - p) * est.trials <= tol_counts, tm.space.state(dst)
