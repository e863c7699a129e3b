import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from criotq import (Action, InvalidParameterError, Phase, PnpModel, PolicyModel,
                    SensingModel, TrafficModel, activity_factor, arrival_tail,
                    decision_distribution, slot_kernel)
from criotq.slot import arrival_pmf_row


def test_activity_factor_values():
    assert activity_factor(PnpModel(1.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert activity_factor(PnpModel(2.0, 1.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # More OFF pressure means the channel is busy more often.
    assert activity_factor(PnpModel(1.0, 3.0)) == pytest.approx(0.75, abs=1e-15)


def test_pnp_model_rejects_bad_rates():
    with pytest.raises(InvalidParameterError):
        PnpModel(mu_on=0.0, mu_off=1.0)
    with pytest.raises(InvalidParameterError):
        PnpModel(mu_on=1.0, mu_off=-2.0)
    with pytest.raises(InvalidParameterError):
        PnpModel(mu_on=math.nan, mu_off=1.0)
    # Finite rates whose sum overflows would give an activity factor of 0.
    with pytest.raises(InvalidParameterError, match="finite total"):
        PnpModel(mu_on=1.7e308, mu_off=1.7e308)
    assert activity_factor(PnpModel(mu_on=8e307, mu_off=8e307)) == 0.5


def test_traffic_model_rejects_non_integer_counts():
    # A bool is an int to Python; as K it would index the chain's arrays
    # as a mask, so it is rejected with the floats.
    for field in ("n", "capacity_k"):
        for bad in (0, 10.0, True, False):
            kwargs = dict(n=20, lam=0.001, capacity_k=10, slot_d=1.0)
            kwargs[field] = bad
            with pytest.raises(InvalidParameterError, match=field):
                TrafficModel(**kwargs)


def test_kernel_hand_values_symmetric_unit_rates():
    # mu_on = mu_off = 1, d = 1: growth = 1 - exp(-2), each cross term is half.
    k = slot_kernel(PnpModel(1.0, 1.0), 1.0)
    e2 = math.exp(-2.0)
    assert k.a01 == pytest.approx((1.0 - e2) / 2.0, abs=1e-15)
    assert k.a10 == pytest.approx((1.0 - e2) / 2.0, abs=1e-15)
    assert k.a11 == pytest.approx((1.0 + e2) / 2.0, abs=1e-15)
    assert k.a11 == pytest.approx(0.5676676416183064, abs=1e-15)
    assert k.off_persist == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert k.on_persist == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_kernel_asymmetric_hand_value():
    # mu_on = 0.3, mu_off = 0.7, d = 2: a01 = 0.7 * (1 - e^-2) / 1.0
    k = slot_kernel(PnpModel(0.3, 0.7), 2.0)
    assert k.a01 == pytest.approx(0.7 * (1.0 - math.exp(-2.0)), abs=1e-15)
    assert k.a10 == pytest.approx(0.3 * (1.0 - math.exp(-2.0)), abs=1e-15)
    assert k.off_persist == pytest.approx(math.exp(-1.4), abs=1e-15)


def test_kernel_zero_slot_is_identity():
    k = slot_kernel(PnpModel(0.4, 1.3), 0.0)
    assert k.a00 == 1.0 and k.a11 == 1.0
    assert k.a01 == 0.0 and k.a10 == 0.0
    assert k.off_persist == 1.0 and k.on_persist == 1.0


def test_kernel_long_slot_forgets_phase():
    # As d grows both rows converge to (1 - beta, beta).
    pnp = PnpModel(0.8, 0.2)
    beta = activity_factor(pnp)
    k = slot_kernel(pnp, 200.0)
    assert k.a01 == pytest.approx(beta, abs=1e-12)
    assert k.a11 == pytest.approx(beta, abs=1e-12)
    assert k.off_persist == pytest.approx(0.0, abs=1e-12)


def test_kernel_short_slot_matches_series_expansion():
    # First-order: a01 ~ mu_off * d, relative error O(Sigma * d).
    pnp = PnpModel(2.0, 5.0)
    d = 1e-9
    k = slot_kernel(pnp, d)
    assert k.a01 == pytest.approx(5.0 * d, rel=1e-7)
    assert k.a10 == pytest.approx(2.0 * d, rel=1e-7)


def test_kernel_rejects_negative_slot():
    with pytest.raises(InvalidParameterError):
        slot_kernel(PnpModel(1.0, 1.0), -0.5)


def test_kernel_rows_stochastic_and_persistence_bounded():
    rng = np.random.default_rng(7021)
    for _ in range(1000):
        pnp = PnpModel(float(rng.uniform(1e-3, 20.0)), float(rng.uniform(1e-3, 20.0)))
        d = float(rng.uniform(0.0, 50.0))
        k = slot_kernel(pnp, d)
        assert abs(k.a00 + k.a01 - 1.0) <= 1e-12
        assert abs(k.a10 + k.a11 - 1.0) <= 1e-12
        # Staying the whole slot is one way of ending where you started.
        assert k.off_persist <= k.a00 + 1e-12
        assert k.on_persist <= k.a11 + 1e-12
        for v in (k.a00, k.a01, k.a10, k.a11, k.off_persist, k.on_persist):
            assert -1e-15 <= v <= 1.0 + 1e-15


def test_arrival_pmf_matches_poisson_reference():
    traffic = TrafficModel(n=20, lam=0.001, capacity_k=10, slot_d=1.0)
    mean = traffic.mean_arrivals_per_slot
    assert mean == pytest.approx(0.02, abs=1e-15)
    pmf = arrival_pmf_row(traffic, 20)
    assert pmf[0] == pytest.approx(math.exp(-0.02), abs=1e-15)
    for k in range(21):
        want = scipy.stats.poisson.pmf(k, mean)
        assert pmf[k] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_arrival_pmf_large_mean_against_reference():
    traffic = TrafficModel(n=50, lam=0.4, capacity_k=10, slot_d=2.0)
    mean = traffic.mean_arrivals_per_slot  # 40 per slot
    pmf = arrival_pmf_row(traffic, 90)
    for k in (0, 1, 17, 40, 90):
        want = scipy.stats.poisson.pmf(k, mean)
        assert pmf[k] == pytest.approx(want, rel=1e-10, abs=1e-300)


def _pmf_per_k(mean, k):
    """The per-k form: exp(-mean) at 0, else exp(k log(mean) - mean - lgamma(k + 1))."""
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return math.exp(-mean)
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(mean=st.one_of(st.sampled_from([0.0, 1e-6, 1e3]),
                      st.floats(min_value=0.0, max_value=1e3)),
       k_max=st.integers(min_value=0, max_value=60))
def test_arrival_pmf_row_is_the_per_k_pmf_bit_for_bit(mean, k_max):
    traffic = TrafficModel(n=1, lam=mean, capacity_k=10, slot_d=1.0)
    want = [_pmf_per_k(mean, k) for k in range(k_max + 1)]
    assert [x.hex() for x in arrival_pmf_row(traffic, k_max)] == [x.hex() for x in want]
    acc = 0.0
    for x in want:
        acc += x
    assert arrival_tail(traffic, k_max + 1) == min(1.0, max(0.0, 1.0 - acc))


def test_arrival_pmf_edge_cases():
    quiet = TrafficModel(n=20, lam=0.0, capacity_k=10, slot_d=1.0)
    assert arrival_pmf_row(quiet, 3) == [1.0, 0.0, 0.0, 0.0]
    assert arrival_tail(quiet, 1) == 0.0
    assert arrival_tail(quiet, 0) == 1.0


def test_arrival_tail_consistent_with_pmf():
    traffic = TrafficModel(n=30, lam=0.05, capacity_k=10, slot_d=1.5)
    mean = traffic.mean_arrivals_per_slot
    pmf = arrival_pmf_row(traffic, 14)
    for k_min in range(0, 15):
        want = scipy.stats.poisson.sf(k_min - 1, mean)
        assert arrival_tail(traffic, k_min) == pytest.approx(want, rel=1e-10)
        # tail(k) - tail(k+1) telescopes back to the pmf
        diff = arrival_tail(traffic, k_min) - arrival_tail(traffic, k_min + 1)
        assert diff == pytest.approx(pmf[k_min], rel=1e-9, abs=1e-15)


def test_decision_hand_values_off_phase():
    sensing = SensingModel(p_detect=0.9, p_false_alarm=0.1)
    policy = PolicyModel(theta_idle=0.2, xi_charge=0.5)
    pmf = decision_distribution(Phase.OFF, sensing, policy)
    # perceived free 0.9, then 0.8 act, split evenly
    assert pmf.idle == pytest.approx(0.28, abs=1e-15)
    assert pmf.serve == pytest.approx(0.36, abs=1e-15)
    assert pmf.charge == pytest.approx(0.36, abs=1e-15)
    assert pmf.idle + pmf.serve + pmf.charge == pytest.approx(1.0, abs=1e-15)


def test_decision_hand_values_on_phase():
    sensing = SensingModel(p_detect=0.9, p_false_alarm=0.1)
    policy = PolicyModel(theta_idle=0.2, xi_charge=0.5)
    pmf = decision_distribution(Phase.ON, sensing, policy)
    # perceived free only on missed detection: 0.1
    assert pmf.serve == pytest.approx(0.1 * 0.8 * 0.5, abs=1e-15)
    assert pmf.charge == pytest.approx(0.1 * 0.8 * 0.5, abs=1e-15)
    assert pmf.idle == pytest.approx(1.0 - 0.08, abs=1e-15)


def test_decision_perfect_detection_never_acts_on_busy():
    sensing = SensingModel(p_detect=1.0, p_false_alarm=0.0)
    policy = PolicyModel(theta_idle=0.2, xi_charge=0.5)
    pmf = decision_distribution(Phase.ON, sensing, policy)
    assert pmf.idle == 1.0 and pmf.serve == 0.0 and pmf.charge == 0.0
    free = decision_distribution(Phase.OFF, sensing, policy)
    assert free.serve == pytest.approx(0.4, abs=1e-15)


def test_decision_always_idle_policy():
    sensing = SensingModel(p_detect=0.9, p_false_alarm=0.1)
    policy = PolicyModel(theta_idle=1.0, xi_charge=0.5)
    for phase in (Phase.OFF, Phase.ON):
        pmf = decision_distribution(phase, sensing, policy)
        assert pmf.idle == 1.0 and pmf.serve == 0.0 and pmf.charge == 0.0


def test_decision_empty_queue_folds_serve_into_idle():
    sensing = SensingModel(p_detect=0.9, p_false_alarm=0.1)
    policy = PolicyModel(theta_idle=0.2, xi_charge=0.5)
    pmf = decision_distribution(Phase.OFF, sensing, policy, queue_empty=True)
    assert pmf.serve == 0.0
    assert pmf.charge == pytest.approx(0.36, abs=1e-15)
    assert pmf.idle == pytest.approx(0.64, abs=1e-15)


def test_decision_sums_to_one_random_sweep():
    rng = np.random.default_rng(9201)
    for _ in range(500):
        sensing = SensingModel(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        policy = PolicyModel(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        for phase in (Phase.OFF, Phase.ON):
            for empty in (False, True):
                pmf = decision_distribution(phase, sensing, policy, queue_empty=empty)
                assert pmf.idle + pmf.serve + pmf.charge == pytest.approx(1.0, abs=1e-12)
                assert min(pmf) >= 0.0


def test_enums_are_stable():
    assert int(Phase.OFF) == 0 and int(Phase.ON) == 1
    assert int(Action.IDLE) == 0 and int(Action.SERVE) == 1 and int(Action.CHARGE) == 2
