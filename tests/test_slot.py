import dataclasses
import math
from decimal import Decimal

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from criotq import (Action, InvalidParameterError, Phase, PnpModel, PolicyModel, PowerModel,
                    SensingModel, SystemParams, TrafficModel, activity_factor, arrival_tail,
                    build_transition_matrix, decision_distribution, slot_kernel)
from criotq.slot import arrival_pmf_row
from conftest import make_params


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


def _power(**kw):
    fields = dict(p_charge_min=5e-5, p_max=10.0, energy_per_packet=4e-4,
                  pathloss_exponent=2.0, node_radii=(1.0, 2.0, 3.0))
    return PowerModel(**{**fields, **kw})


def _with_radii(radii):
    params = make_params(n=3)
    return SystemParams(params.pnp, params.traffic, params.sensing, params.policy,
                        _power(node_radii=radii))


# One case per check of the sensing, policy, power and system records, each
# breaking only that check: with the check gone, the record is accepted or
# raises another check's message.  The pnp and traffic cases are integers
# past the float range, which float() cannot take.  numpy bools and Decimals
# are not real numbers, whatever value they hold.
_REFUSALS = {
    "pnp-int-overflow": (lambda: PnpModel(10**400, 1.0), "pnp rates must be finite"),
    "pnp-bool": (lambda: PnpModel(True, 1.0), "pnp rates must be finite"),
    "pnp-string": (lambda: PnpModel("1", 1.0), "pnp rates must be finite"),
    "pnp-numpy-bool": (lambda: PnpModel(np.True_, 1.0), "pnp rates must be finite"),
    "pnp-decimal": (lambda: PnpModel(Decimal("1"), 1.0), "pnp rates must be finite"),
    "lam-bool": (lambda: TrafficModel(2, True, 3, 1.0), "traffic parameters must be finite"),
    "slot_d-string": (lambda: TrafficModel(2, 0.001, 3, "1"), "traffic parameters must be finite"),
    "n-overflow": (lambda: TrafficModel(10**400, 0.001, 10, 1.0),
                   r"offered load n \* lam \* slot_d must be finite"),
    "sensing-nan": (lambda: SensingModel(math.nan, 0.1), "sensing probabilities must be finite"),
    "sensing-inf": (lambda: SensingModel(0.9, math.inf), "sensing probabilities must be finite"),
    "sensing-bool": (lambda: SensingModel(True, False), "sensing probabilities must be finite"),
    "sensing-numpy-bool": (lambda: SensingModel(np.True_, 0.1),
                           "sensing probabilities must be finite"),
    "sensing-decimal": (lambda: SensingModel(Decimal("0.5"), 0.1),
                        "sensing probabilities must be finite"),
    "p_detect-above-1": (lambda: SensingModel(1.5, 0.1), r"p_detect must lie in \[0, 1\]"),
    "p_detect-negative": (lambda: SensingModel(-0.1, 0.1), r"p_detect must lie in \[0, 1\]"),
    "p_false_alarm-above-1": (lambda: SensingModel(0.9, 1.1),
                              r"p_false_alarm must lie in \[0, 1\]"),
    "policy-nan": (lambda: PolicyModel(math.nan, 0.5), "policy probabilities must be finite"),
    "policy-bool": (lambda: PolicyModel(False, True), "policy probabilities must be finite"),
    "policy-numpy-bool": (lambda: PolicyModel(np.True_, 0.5), "policy probabilities must be finite"),
    "theta_idle-above-1": (lambda: PolicyModel(1.5, 0.5), r"theta_idle must lie in \[0, 1\]"),
    "xi_charge-negative": (lambda: PolicyModel(0.2, -0.5), r"xi_charge must lie in \[0, 1\]"),
    "power-nan": (lambda: _power(p_charge_min=math.nan), "power parameters must be finite"),
    "power-inf": (lambda: _power(p_max=math.inf), "power parameters must be finite"),
    "power-bool": (lambda: _power(p_max=True), "power parameters must be finite"),
    "power-string": (lambda: _power(energy_per_packet="4e-4"), "power parameters must be finite"),
    "p_charge_min-zero": (lambda: _power(p_charge_min=0.0), "p_charge_min must be positive"),
    "p_max-negative": (lambda: _power(p_max=-1.0), "p_max must be positive"),
    "energy_per_packet-zero": (lambda: _power(energy_per_packet=0.0),
                               "energy_per_packet must be positive"),
    "pathloss_exponent-negative": (lambda: _power(pathloss_exponent=-0.5),
                                   "pathloss_exponent must be nonnegative"),
    "radii-string": (lambda: _power(node_radii="123"), "node_radii must be a sequence of real"),
    "radii-bytes": (lambda: _power(node_radii=b"12"), "node_radii must be a sequence of real"),
    "radii-bool": (lambda: _power(node_radii=(True,)), "node_radii must be a sequence of real"),
    "radii-numpy-bool": (lambda: _power(node_radii=(np.True_,)),
                         "node_radii must be a sequence of real"),
    "radii-numeric-string": (lambda: _power(node_radii=("1e3",)),
                             "node_radii must be a sequence of real"),
    "radii-none": (lambda: _power(node_radii=(1.0, None)), "node_radii must be a sequence of real"),
    "radii-empty": (lambda: _power(node_radii=()), "node_radii must be nonempty"),
    "radius-zero": (lambda: _power(node_radii=(1.0, 0.0)), "node radii must be positive and finite"),
    "radius-inf": (lambda: _power(node_radii=(math.inf,)), "node radii must be positive and finite"),
    "radius-int-overflow": (lambda: _power(node_radii=(1.0, 10**400)),
                            "node radii must be positive and finite"),
    "charging_radius-zero": (lambda: _power(charging_radius=0.0),
                             "charging_radius must be positive"),
    "charging_radius-nan": (lambda: _power(charging_radius=math.nan),
                            "charging_radius must be positive"),
    "charging_radius-bool": (lambda: _power(charging_radius=True),
                             "charging_radius must be positive"),
    "charging_radius-string": (lambda: _power(charging_radius="5"),
                               "charging_radius must be positive"),
    "charging_radius-int-overflow": (lambda: _power(charging_radius=10**400),
                                     "charging_radius must be positive"),
    "node-count": (lambda: _with_radii((1.0, 2.0)), "node_radii length must equal the node count n"),
    "node-count-string": (lambda: _with_radii("123"), "node_radii must be a sequence of real"),
}


@pytest.mark.parametrize("build, message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_records_refuse_bad_fields(build, message):
    with pytest.raises(InvalidParameterError, match=message):
        build()


def test_records_accept_real_radii():
    radii = _power(node_radii=[1, 2.5, np.float32(3.0), np.int64(4)]).node_radii
    assert radii == (1.0, 2.5, 3.0, 4.0)
    assert all(type(r) is float for r in radii)
    assert _with_radii((1.0, 2.0, 3.0)).power.node_radii == (1.0, 2.0, 3.0)


def test_records_read_one_shot_radii_once():
    # A generator is read once, into the record the list gives; a string
    # is still refused.
    assert _power(node_radii=(r for r in [1.0, 2.0])) == _power(node_radii=[1.0, 2.0])
    with pytest.raises(InvalidParameterError, match="node_radii must be a sequence of real"):
        _power(node_radii=iter(["1", "2"]))
    with pytest.raises(InvalidParameterError, match="node_radii must be a sequence of real"):
        _power(node_radii="12")


def test_traffic_model_rejects_non_integer_counts():
    # A bool is an int to Python; as K it would index the chain's arrays
    # as a mask, so it is rejected with the floats.
    for field in ("n", "capacity_k"):
        for bad in (0, 10.0, True, False):
            kwargs = dict(n=20, lam=0.001, capacity_k=10, slot_d=1.0)
            kwargs[field] = bad
            with pytest.raises(InvalidParameterError, match=field):
                TrafficModel(**kwargs)


def test_traffic_model_rejects_an_overflowing_offered_load():
    # n * lam overflows, and a finite n * lam overflows once times slot_d;
    # either load would reach the chain as NaN pmf rows.
    for kwargs in (dict(n=20, lam=1e307, capacity_k=10, slot_d=1.0),
                   dict(n=1, lam=1e300, capacity_k=10, slot_d=1e10)):
        with pytest.raises(InvalidParameterError, match="offered load n \\* lam \\* slot_d"):
            TrafficModel(**kwargs)
    assert TrafficModel(n=1, lam=1e300, capacity_k=10, slot_d=1e8).mean_arrivals_per_slot > 1e307


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


@pytest.mark.parametrize("slot_d", [True, "1.0", 10**400, np.True_, Decimal("1")],
                         ids=["bool", "string", "int-overflow", "numpy-bool", "decimal"])
def test_kernel_refuses_a_slot_that_is_not_a_finite_number(slot_d):
    # The kernel of slot_d = 1 is cached first: True and np.True_ equal 1
    # and hash like it, and must still be refused rather than found.
    pnp = PnpModel(1.0, 1.0)
    slot_kernel(pnp, 1)
    with pytest.raises(InvalidParameterError, match="slot_d must be finite and nonnegative"):
        slot_kernel(pnp, slot_d)


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


@pytest.mark.parametrize("fields, message", [
    (dict(a00=1.5, a01=-0.5), r"kernel field a00=1.5 outside \[0, 1\]"),
    (dict(a10=0.6, a11=0.6), "kernel rows must sum to 1"),
    (dict(on_persist=0.9), "whole-slot persistence cannot exceed endpoint persistence"),
])
def test_kernel_record_rejects_an_inconsistent_law(fields, message):
    # Unit rates and a unit slot: a00 = a11 = (1 + e^-2) / 2 and both
    # persistences e^-1, so each edit breaks exactly one rule.
    k = slot_kernel(PnpModel(1.0, 1.0), 1.0)
    with pytest.raises(InvalidParameterError, match=message):
        dataclasses.replace(k, **fields)


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


def _tails_by_loop(pmf):
    """[P(A >= m) for m = 0..len(pmf)]: 1 minus the pmf added one term at a time, in [0, 1]."""
    tails, acc = [1.0], 0.0
    for x in pmf:
        acc += x
        tails.append(min(1.0, max(0.0, 1.0 - acc)))
    return tails


#: Means whose running pmf sum passes 1 by K = 10, so that the tail's floor at 0 fires.
_FLOORED_MEANS = (0.002976351441631313, 0.061584821106602294)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(mean=st.one_of(st.sampled_from([0.0, 1e-18, 1e-6, 1e3, *_FLOORED_MEANS]),
                      st.floats(min_value=-18.0, max_value=3.0).map(lambda e: 10.0 ** e)),
       k_max=st.one_of(st.sampled_from([1, 10, 200, 400]),
                       st.integers(min_value=0, max_value=60)))
@example(mean=1e-18, k_max=1)
@example(mean=_FLOORED_MEANS[0], k_max=10)
@example(mean=_FLOORED_MEANS[1], k_max=200)
@example(mean=1e3, k_max=400)
def test_arrival_pmf_row_is_the_per_k_pmf_bit_for_bit(mean, k_max):
    traffic = TrafficModel(n=1, lam=mean, capacity_k=10, slot_d=1.0)
    want = [_pmf_per_k(mean, k) for k in range(k_max + 1)]
    assert [x.hex() for x in arrival_pmf_row(traffic, k_max)] == [x.hex() for x in want]
    tails = [arrival_tail(traffic, m) for m in range(k_max + 2)]
    assert [x.hex() for x in tails] == [x.hex() for x in _tails_by_loop(want)]


@pytest.mark.parametrize("lam, floored", [(0.001, False), (0.00015, True),  # light
                                          (5.0, True), (9.0, False)])  # heavy
def test_built_tail_column_is_the_running_sum_loop_bit_for_bit(lam, floored):
    # Column K of the no-departure shift holds P(A >= K - i) in row i.
    k_cap = 200
    params = make_params(capacity_k=k_cap, lam=lam)
    mean = params.traffic.mean_arrivals_per_slot
    tails = _tails_by_loop([_pmf_per_k(mean, k) for k in range(k_cap + 1)])
    column = build_transition_matrix(params).shifts[0, 0, :, k_cap]
    assert [x.hex() for x in column] == [tails[k_cap - i].hex() for i in range(k_cap + 1)]
    assert bool(np.any(column == 0.0)) == floored
def test_arrival_pmf_edge_cases():
    quiet = TrafficModel(n=20, lam=0.0, capacity_k=10, slot_d=1.0)
    assert arrival_pmf_row(quiet, 3) == (1.0, 0.0, 0.0, 0.0)
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
