import math
import warnings

import numpy as np
import pytest

from criotq import (Action, DegenerateDistributionError, InvalidParameterError,
                    MetricRangeError, Phase, TrafficModel, UndefinedLoadError,
                    UndefinedWaitError,
                    activity_factor, arrival_pmf, build_transition_matrix, carried_load,
                    charge_fraction, departure_distributions, evaluate_qos,
                    interference_probability, nominal_charge_fraction,
                    packet_drop_probability, required_power, stationary_distribution,
                    waiting_time)
from conftest import make_params


def solve(params):
    tm = build_transition_matrix(params)
    return tm, stationary_distribution(tm)


def test_carried_load_zero_when_never_serving():
    tm, mu = solve(make_params(theta=1.0, lam=0.05))
    assert carried_load(mu, tm.kernel) == 0.0
    tm2, mu2 = solve(make_params(lam=0.0))
    assert carried_load(mu2, tm2.kernel) <= 1e-12


def test_drop_probability_flow_balance(baseline_params):
    tm, mu = solve(baseline_params)
    rho_c = carried_load(mu, tm.kernel)
    serving = sum(mu.prob(i, Phase.OFF, Action.SERVE) for i in range(1, 11))
    assert rho_c == pytest.approx(tm.kernel.off_persist * serving, rel=1e-12)
    p_b = packet_drop_probability(rho_c, baseline_params.traffic)
    assert p_b == pytest.approx(1.0 - rho_c / 0.02, abs=1e-15)
    assert 0.0 < p_b < 1e-4


def test_drop_probability_saturated_policy():
    params = make_params(theta=1.0, lam=0.05)
    assert packet_drop_probability(0.0, params.traffic) == 1.0


def test_drop_probability_zero_load_raises():
    traffic = TrafficModel(n=20, lam=0.0, capacity_k=10, slot_d=1.0)
    with pytest.raises(UndefinedLoadError):
        packet_drop_probability(0.0, traffic)


def test_drop_probability_overshoot_clamps_and_warns():
    traffic = TrafficModel(n=20, lam=0.001, capacity_k=10, slot_d=1.0)
    # ulp-scale overshoot clamps silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert packet_drop_probability(0.02 * (1.0 + 1e-14), traffic) == 0.0
    # a visibly negative value still warns before clamping
    with pytest.warns(RuntimeWarning):
        assert packet_drop_probability(0.02 * (1.0 + 1e-10), traffic) == 0.0
    with pytest.raises(MetricRangeError):
        packet_drop_probability(0.04, traffic)


def test_departure_distributions_basics(baseline_params):
    tm, mu = solve(baseline_params)
    traffic = baseline_params.traffic
    serving = [mu.prob(j, Phase.OFF, Action.SERVE) for j in range(1, 11)]
    for variant in ("cumulative", "arrival-weighted"):
        dd = departure_distributions(mu, tm.kernel, baseline_params.traffic, variant)
        assert dd.variant == variant
        # kappa[i]: departures leaving i behind, from serving level j <= i + 1
        # after i + 1 - j arrivals (weighted by their pmf in that variant).
        weight = ((lambda n: arrival_pmf(traffic, n)) if variant == "arrival-weighted"
                  else (lambda n: 1.0))
        want = [tm.kernel.off_persist * sum(serving[j] * weight(i - j) for j in range(i + 1))
                for i in range(10)]
        assert dd.kappa == pytest.approx(want, rel=1e-12)
        assert dd.delta.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dd.delta >= 0.0)
        assert dd.epsilon.sum() == pytest.approx(1.0, abs=1e-12)
        rho_c = carried_load(mu, tm.kernel)
        p_b = packet_drop_probability(rho_c, baseline_params.traffic)
        assert dd.epsilon[-1] == pytest.approx(p_b, abs=1e-15)
        assert np.allclose(dd.gamma, dd.delta)
    with pytest.raises(InvalidParameterError):
        departure_distributions(mu, tm.kernel, baseline_params.traffic, "median")


def test_departure_variants_coincide_up_to_weights_at_capacity_one():
    # With K = 1 a departure always leaves an empty queue; the weighted
    # variant only rescales kappa by the no-arrival mass.
    params = make_params(capacity_k=1, lam=0.03)
    tm, mu = solve(params)
    plain = departure_distributions(mu, tm.kernel, params.traffic, "cumulative")
    weighted = departure_distributions(mu, tm.kernel, params.traffic, "arrival-weighted")
    assert plain.delta == pytest.approx([1.0], abs=1e-15)
    assert weighted.delta == pytest.approx([1.0], abs=1e-15)
    a0 = math.exp(-params.traffic.mean_arrivals_per_slot)
    assert weighted.kappa[0] == pytest.approx(plain.kappa[0] * a0, rel=1e-12)


def test_departure_distributions_degenerate():
    params = make_params(theta=1.0, lam=0.05)
    tm, mu = solve(params)
    with pytest.raises(DegenerateDistributionError):
        departure_distributions(mu, tm.kernel, params.traffic)


def test_waiting_time_inverse_rate_identity(baseline_params):
    tm, mu = solve(baseline_params)
    dd = departure_distributions(mu, tm.kernel, baseline_params.traffic)
    rho_c = carried_load(mu, tm.kernel)
    p_b = packet_drop_probability(rho_c, baseline_params.traffic)
    w = waiting_time(dd, p_b, baseline_params.traffic, "inverse-rate")
    lam_agg = 0.02
    want = p_b / (lam_agg * (1.0 - p_b)) + 1.0 / lam_agg
    assert w == pytest.approx(want, rel=1e-12)
    assert w == pytest.approx(50.0, rel=1e-4)


def test_waiting_time_slot_average_identity(baseline_params):
    tm, mu = solve(baseline_params)
    rho_c = carried_load(mu, tm.kernel)
    p_b = packet_drop_probability(rho_c, baseline_params.traffic)
    w = waiting_time(None, p_b, baseline_params.traffic, "slot-average", mu=mu)
    mean_q = sum(i * mu.vector[idx] for idx, (i, _, _) in enumerate(tm.space.states))
    assert w == pytest.approx(mean_q / (0.02 * (1.0 - p_b)), rel=1e-12)
    assert 10.0 < w < 40.0


def test_waiting_time_errors(baseline_params):
    tm, mu = solve(baseline_params)
    with pytest.raises(UndefinedWaitError):
        waiting_time(None, 1.0, baseline_params.traffic, "slot-average", mu=mu)
    with pytest.raises(InvalidParameterError):
        waiting_time(None, 0.0, baseline_params.traffic, "inverse-rate")
    with pytest.raises(InvalidParameterError):
        waiting_time(None, 0.0, baseline_params.traffic, "harmonic", mu=mu)


def test_interference_zero_under_perfect_detection():
    tm, mu = solve(make_params(p_detect=1.0, lam=0.05))
    assert interference_probability(mu) <= 1e-12
    tm2, mu2 = solve(make_params(theta=1.0, lam=0.05))
    assert interference_probability(mu2) == 0.0


def test_interference_positive_at_baseline(baseline_params):
    tm, mu = solve(baseline_params)
    p_i = interference_probability(mu)
    transmitting_on = sum(mu.vector[idx] for idx, (_, phi, psi) in enumerate(tm.space.states)
                          if phi == Phase.ON and psi != Action.IDLE)
    assert p_i == pytest.approx(transmitting_on, rel=1e-12)
    # Acting on a missed detection needs the ON mass, a miss, and an
    # action coin: beta * (1 - P_D) * (1 - theta) bounds it from above.
    assert 0.0 < p_i <= 0.5 * 0.1 * 0.8 + 1e-12


def test_charge_fraction_closed_form():
    # Charging never depends on the queue, so the stationary charge
    # fraction is the phase-averaged perceived-free mass times the two
    # policy coins.
    for kwargs in (dict(), dict(mu_on=0.6, mu_off=1.7, p_detect=0.7,
                               p_false_alarm=0.25, theta=0.35, xi=0.8, lam=0.02)):
        params = make_params(**kwargs)
        tm, mu = solve(params)
        beta = activity_factor(params.pnp)
        free = ((1.0 - beta) * (1.0 - params.sensing.p_false_alarm)
                + beta * (1.0 - params.sensing.p_detect))
        want = free * (1.0 - params.policy.theta_idle) * params.policy.xi_charge
        assert charge_fraction(mu) == pytest.approx(want, abs=1e-10)


def test_nominal_charge_fraction(baseline_params):
    assert nominal_charge_fraction(baseline_params) == pytest.approx(0.2, abs=1e-15)
    assert nominal_charge_fraction(make_params(theta=1.0)) == 0.0


def test_required_power_floor_binds():
    # 20 nodes on radii sqrt((k + 0.5)/20) km with the 1 km scale and
    # exponent 2 give weights summing to exactly 10.
    params = make_params()
    req = required_power(params.power, params.traffic, params.policy, 0.5, 0.0)
    assert req.per_node == pytest.approx(50e-6, abs=1e-18)
    assert req.total == pytest.approx(5e-4, rel=1e-12)
    assert req.clamped == req.total
    assert req.feasible


def test_required_power_dynamic_term():
    params = make_params(lam=0.05)
    req = required_power(params.power, params.traffic, params.policy, 0.5, 0.25)
    # 400 uJ * 0.05/s * 0.75 / 0.2 = 75 uW per node, 750 uW at the AP.
    assert req.per_node == pytest.approx(75e-6, rel=1e-12)
    assert req.total == pytest.approx(750e-6, rel=1e-12)
    assert req.feasible


def test_required_power_zero_charge_time_is_infeasible():
    params = make_params(theta=1.0, lam=0.05)
    req = required_power(params.power, params.traffic, params.policy, 0.5, 0.0)
    assert math.isinf(req.total)
    assert not req.feasible
    assert req.clamped == params.power.p_max
    with pytest.raises(InvalidParameterError):
        required_power(params.power, params.traffic, params.policy, 1.5, 0.0)


def test_evaluate_qos_baseline_frozen(baseline_params):
    r = evaluate_qos(baseline_params, 0.1, 0.1)
    assert r.offered_load == pytest.approx(0.02, abs=1e-15)
    assert r.carried_load == pytest.approx(0.01999987355072524, rel=1e-9)
    assert r.drop_prob == pytest.approx(6.3224637379954984e-06, rel=1e-6)
    assert r.wait_inverse_rate == pytest.approx(50.00031612518559, rel=1e-9)
    assert r.wait_slot_avg == pytest.approx(23.075703843987903, rel=1e-9)
    assert r.interference_prob == pytest.approx(0.026663743512927475, rel=1e-9)
    assert r.charge_frac == pytest.approx(0.2, abs=1e-10)
    assert r.charge_frac_nominal == pytest.approx(0.2, abs=1e-15)
    assert r.power.total == pytest.approx(5e-4, rel=1e-12)
    assert r.residual <= 1e-10
    assert r.solver_method == "direct"
    assert r.feasible is True


def test_evaluate_qos_threshold_pairing(baseline_params):
    with pytest.raises(InvalidParameterError):
        evaluate_qos(baseline_params, max_drop=0.1)
    r = evaluate_qos(baseline_params)
    assert r.feasible is None


def test_evaluate_qos_zero_load():
    r = evaluate_qos(make_params(lam=0.0), 0.1, 0.1)
    assert r.drop_prob == 0.0
    assert r.carried_load <= 1e-12
    assert r.wait_inverse_rate is None
    assert r.wait_slot_avg is None
    assert r.feasible is True
    assert r.power.per_node == pytest.approx(50e-6, abs=1e-18)


def test_evaluate_qos_saturated_policy():
    r = evaluate_qos(make_params(theta=1.0, lam=0.05), 0.1, 0.1)
    assert r.drop_prob == 1.0
    assert r.wait_inverse_rate is None
    assert r.wait_slot_avg is None
    assert r.interference_prob == 0.0
    assert r.feasible is False
    assert not r.power.feasible


def test_evaluate_qos_kappa_variant_changes_inverse_rate_little(baseline_params):
    plain = evaluate_qos(baseline_params, kappa_variant="cumulative")
    weighted = evaluate_qos(baseline_params, kappa_variant="arrival-weighted")
    # delta renormalizes, so both variants produce the same composed wait.
    assert plain.wait_inverse_rate == pytest.approx(weighted.wait_inverse_rate, rel=1e-12)
    assert plain.wait_slot_avg == pytest.approx(weighted.wait_slot_avg, rel=1e-12)


def test_drop_probability_increases_with_load():
    drops = [evaluate_qos(make_params(lam=lam)).drop_prob
             for lam in (0.001, 0.004, 0.016, 0.064)]
    for lo, hi in zip(drops, drops[1:]):
        assert hi >= lo - 1e-12


def test_interference_increases_with_miss_rate():
    vals = [evaluate_qos(make_params(p_detect=pd)).interference_prob
            for pd in (1.0, 0.9, 0.7, 0.5)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
