import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criotq import (Action, DegenerateDistributionError, InvalidParameterError,
                    MetricRangeError, NoConvergenceError, Phase, activity_factor,
                    build_transition_matrix, departure_distributions,
                    evaluate_qos, nominal_charge_fraction, required_power, slot_kernel,
                    stationary_distribution)
from criotq import metrics
from criotq.chain import build_chains, stationary_vectors
from criotq.metrics import Constraints, _reports, qos_reports
from criotq.slot import arrival_pmf_row, tail_rows
from conftest import make_params


def solve(params):
    tm = build_transition_matrix(params)
    return tm, stationary_distribution(tm)


def test_carried_load_zero_when_never_serving():
    assert evaluate_qos(make_params(theta=1.0, lam=0.05)).carried_load == 0.0
    assert evaluate_qos(make_params(lam=0.0)).carried_load <= 1e-12


def test_drop_probability_flow_balance(baseline_params):
    tm, mu = solve(baseline_params)
    rho_c = evaluate_qos(baseline_params).carried_load
    serving = sum(mu.vector[tm.space.index(i, Phase.OFF, Action.SERVE)] for i in range(1, 11))
    off_persist = slot_kernel(baseline_params.pnp, baseline_params.traffic.slot_d).off_persist
    assert rho_c == pytest.approx(off_persist * serving, rel=1e-12)
    p_b = evaluate_qos(baseline_params).drop_prob
    assert p_b == pytest.approx(1.0 - rho_c / 0.02, abs=1e-15)
    assert 0.0 < p_b < 1e-4


def test_drop_probability_saturated_policy():
    assert evaluate_qos(make_params(theta=1.0, lam=0.05)).drop_prob == 1.0


def _report_with_carried_load(params, carried):
    """The report of params with the success probability scaled so its carried load is carried."""
    chains = build_chains([params])
    pi, residual = stationary_vectors(chains)
    serving = float(np.cumsum(pi[0, 1:, Phase.OFF, Action.SERVE])[-1])
    chains = chains._replace(service_success=np.array([carried / serving]))
    return _reports([params], chains, pi, residual.tolist(), None)[0]


def test_drop_probability_overshoot_clamps_and_warns():
    params = make_params(lam=0.001)
    rho = params.traffic.mean_arrivals_per_slot
    # ulp-scale overshoot clamps silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _report_with_carried_load(params, rho * (1.0 + 1e-14)).drop_prob == 0.0
    # a visibly negative value still warns before clamping
    with pytest.warns(RuntimeWarning, match="carried load exceeds offered load"):
        assert _report_with_carried_load(params, rho * (1.0 + 1e-10)).drop_prob == 0.0
    with pytest.raises(MetricRangeError, match="drop probability"):
        _report_with_carried_load(params, 2.0 * rho)


def test_carried_load_out_of_range_raises():
    with pytest.raises(MetricRangeError, match="carried load"):
        _report_with_carried_load(make_params(lam=0.001), 1.5)


def test_departure_distributions_basics():
    # At K = 1 every departure leaves the queue empty: delta is [1].  At
    # K = 20 the departure shift reads its last column, and a synchronized
    # chain departs with a00.
    for k_cap, lam, synchronized in ((10, 0.001, False), (10, 0.02, False), (1, 0.03, False),
                                     (20, 0.01, False), (10, 0.001, True), (20, 0.01, True)):
        params = make_params(capacity_k=k_cap, lam=lam)
        tm = build_transition_matrix(params, synchronized=synchronized)
        mu = stationary_distribution(tm)
        traffic = params.traffic
        serving = [mu.vector[tm.space.index(j, Phase.OFF, Action.SERVE)]
                   for j in range(1, k_cap + 1)]
        dd = departure_distributions(mu, tm)

        # kappa[i]: departures from serving level j <= i + 1 that leave i
        # behind, after i + 1 - j admitted arrivals; at the top level
        # i = K - 1 every count of K - j or more, the excess turned away.
        pmf = arrival_pmf_row(traffic, k_cap)
        tails = tail_rows(np.array(pmf))

        def weight(i, j):
            if i == k_cap - 1:
                return tails[k_cap - j]
            return pmf[i + 1 - j]

        want = [tm.service_success[0] * sum(serving[j - 1] * weight(i, j)
                                            for j in range(1, i + 2))
                for i in range(k_cap)]
        assert dd.kappa == pytest.approx(want, rel=1e-12)
        # Every completed service is one departure.
        rho_c = evaluate_qos(params, synchronized=synchronized).carried_load
        assert dd.kappa.sum() == pytest.approx(rho_c, rel=1e-12)
        assert dd.delta.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dd.delta >= 0.0)


@pytest.mark.parametrize("bad", [(0.1, 0.1), "0.1", 0.1,
                                 SimpleNamespace(max_drop=0.1, max_interference=0.1)],
                         ids=["tuple", "string", "float", "look-alike"])
def test_qos_reports_refuses_constraints_that_are_neither_none_nor_a_record(monkeypatch, bad):
    monkeypatch.setattr(metrics, "build_chains", lambda *args, **kwargs: pytest.fail("built"))
    with pytest.raises(InvalidParameterError, match="constraints must be a Constraints, got "):
        qos_reports([make_params()], bad)


def test_departure_distributions_degenerate():
    params = make_params(theta=1.0, lam=0.05)
    tm, mu = solve(params)
    with pytest.raises(DegenerateDistributionError):
        departure_distributions(mu, tm)


def test_departure_distributions_refuse_a_stack_of_two():
    tm, mu = solve(make_params())
    with pytest.raises(InvalidParameterError, match="expected a one-point chain, got a stack of 2"):
        departure_distributions(mu, build_chains([make_params(), make_params(lam=0.01)]))


def test_evaluate_qos_wait_identities(baseline_params):
    # Both waits are those of an admitted packet at rate lam_eff =
    # n lam (1 - P_B); a saturated point, with lam_eff = 0, has none
    # (test_evaluate_qos_saturated_policy).
    r = evaluate_qos(baseline_params)
    tm, mu = solve(baseline_params)
    p_b = r.drop_prob
    assert p_b == pytest.approx(1.0 - r.carried_load / 0.02, abs=1e-15)
    lam_agg = 0.02
    want = p_b / (lam_agg * (1.0 - p_b)) + 1.0 / lam_agg
    assert r.wait_inverse_rate == pytest.approx(want, rel=1e-12)
    assert r.wait_inverse_rate == pytest.approx(50.0, rel=1e-4)
    # Little's law on the mean slot-start queue length.
    mean_q = sum(i * mu.vector[idx] for idx, i in enumerate(tm.space.queue))
    assert r.wait_slot_avg == pytest.approx(mean_q / (lam_agg * (1.0 - p_b)), rel=1e-12)
    assert 10.0 < r.wait_slot_avg < 40.0


def test_interference_zero_under_perfect_detection():
    assert evaluate_qos(make_params(p_detect=1.0, lam=0.05)).interference_prob <= 1e-12
    assert evaluate_qos(make_params(theta=1.0, lam=0.05)).interference_prob == 0.0


def test_interference_positive_at_baseline(baseline_params):
    tm, mu = solve(baseline_params)
    p_i = evaluate_qos(baseline_params).interference_prob
    transmitting_on = sum(mu.vector[idx]
                          for idx, (phi, psi) in enumerate(zip(tm.space.phase, tm.space.action))
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
        beta = activity_factor(params.pnp)
        free = ((1.0 - beta) * (1.0 - params.sensing.p_false_alarm)
                + beta * (1.0 - params.sensing.p_detect))
        want = free * (1.0 - params.policy.theta_idle) * params.policy.xi_charge
        assert evaluate_qos(params).charge_frac == pytest.approx(want, abs=1e-10)


def test_nominal_charge_fraction(baseline_params):
    assert nominal_charge_fraction(baseline_params) == pytest.approx(0.2, abs=1e-15)
    assert nominal_charge_fraction(make_params(theta=1.0)) == 0.0


def test_required_power_floor_binds():
    # 20 nodes on radii sqrt((k + 0.5)/20) km with the 1 km scale and
    # exponent 2 give weights summing to exactly 10.
    params = make_params()
    req = required_power(params, 0.0)
    assert req.per_node == pytest.approx(50e-6, abs=1e-18)
    assert req.total == pytest.approx(5e-4, rel=1e-12)
    assert req.clamped == req.total
    assert req.feasible


def test_required_power_dynamic_term():
    params = make_params(lam=0.05)
    req = required_power(params, 0.25)
    # 400 uJ * 0.05/s * 0.75 / 0.2 = 75 uW per node, 750 uW at the AP.
    assert req.per_node == pytest.approx(75e-6, rel=1e-12)
    assert req.total == pytest.approx(750e-6, rel=1e-12)
    assert req.feasible


def test_required_power_zero_charge_time_is_infeasible():
    params = make_params(theta=1.0, lam=0.05)
    req = required_power(params, 0.0)
    assert math.isinf(req.total)
    assert not req.feasible
    assert req.clamped == params.power.p_max


@pytest.mark.parametrize("drop", [math.nan, math.inf, -math.inf, 1.5, -3.0, -1e-300,
                                  1.0 + 2.0 ** -52, True, False, np.True_, "0.1", None,
                                  pytest.param(10 ** 400, id="int-past-float")])
def test_required_power_refuses_a_drop_probability_outside_0_1(drop):
    # NaN would pass every comparison as feasible; a bool or a string is no probability.
    with pytest.raises(InvalidParameterError, match="drop_prob must be a real number in"):
        required_power(make_params(), drop)


def test_required_power_takes_any_real_drop_probability_in_0_1():
    params = make_params(lam=0.05)
    for drop in (0, 1, 0.0, 1.0, np.float64(0.25), np.float32(0.5)):
        assert required_power(params, drop) == required_power(params, float(drop))
    # _reports shares the formula, unchecked: the report's power is required_power's.
    report = evaluate_qos(params)
    assert report.power == required_power(params, report.drop_prob)


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


@pytest.mark.parametrize("max_drop, max_interference",
                         [(math.nan, 0.1), (1.5, -0.2), (math.inf, math.inf)])
def test_evaluate_qos_checks_thresholds_like_constraints(baseline_params, max_drop,
                                                          max_interference):
    with pytest.raises(InvalidParameterError, match="must lie in"):
        evaluate_qos(baseline_params, max_drop, max_interference)


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


@pytest.mark.parametrize("lam, slot_d", [(1e-310, 1e-20), (1e-200, 1e-150)])
def test_evaluate_qos_underflowing_load_is_zero_load(lam, slot_d):
    # n lam slot_d underflows to 0 while n lam stays positive: the report
    # is the zero-load one, with no waits, not an infinite or huge wait.
    params = make_params(lam=lam, slot_d=slot_d)
    assert params.traffic.mean_arrivals_per_slot == 0.0 < params.traffic.aggregate_rate
    r = evaluate_qos(params, 0.1, 0.1)
    assert r.offered_load == 0.0 and r.drop_prob == 0.0
    assert r.wait_inverse_rate is None
    assert r.wait_slot_avg is None


@pytest.mark.parametrize("k", [1, 2, 10])
def test_vanishing_load_reads_zero_load_off_the_closed_level(k):
    # n lam slot_d = 2e-17 > 0, but pmf(0) rounds to 1: the chain is solved
    # on its closed empty level, so the report is the zero-load one, not
    # flow balance's P_B = 1 - 0 / rho = 1.
    lams = [0.0, 1e-18, 1e-3]
    points = [make_params(lam=lam, capacity_k=k) for lam in lams]
    assert math.exp(-points[1].traffic.mean_arrivals_per_slot) == 1.0
    stacked = qos_reports(points, Constraints(0.1, 0.1))
    light = evaluate_qos(points[1], 0.1, 0.1)
    for r in (light, stacked[1]):
        assert r.offered_load > 0.0
        assert r.drop_prob == 0.0
        assert r.wait_inverse_rate is None and r.wait_slot_avg is None
        assert r.feasible is True
    for params, got in zip(points, stacked):
        assert repr(got) == repr(evaluate_qos(params, 0.1, 0.1))


def test_evaluate_qos_saturated_policy():
    r = evaluate_qos(make_params(theta=1.0, lam=0.05), 0.1, 0.1)
    assert r.drop_prob == 1.0
    assert r.wait_inverse_rate is None
    assert r.wait_slot_avg is None
    assert r.interference_prob == 0.0
    assert r.feasible is False
    assert not r.power.feasible


def test_evaluate_qos_inverse_rate_wait_matches_departure_law(baseline_params):
    # The admission term of the inverse-rate wait is the mass of the
    # normalized post-departure law, which is 1, so the closed form agrees
    # with the composition through delta.
    r = evaluate_qos(baseline_params)
    tm, mu = solve(baseline_params)
    lam_agg = baseline_params.traffic.aggregate_rate
    lam_eff = lam_agg * (1.0 - r.drop_prob)
    assert r.wait_inverse_rate == r.drop_prob / lam_eff + 1.0 / lam_agg
    dd = departure_distributions(mu, tm)
    assert dd.delta.sum() == pytest.approx(1.0, abs=1e-12)
    composed = r.drop_prob / lam_eff + dd.delta.sum() / lam_agg
    assert r.wait_inverse_rate == pytest.approx(composed, rel=1e-12)


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


_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _stacks(draw):
    """Cells sharing one K, with thresholds: the shape of a region pre-scan."""
    k = draw(st.integers(1, 25))
    points = [make_params(mu_on=draw(st.floats(0.1, 10.0)), mu_off=draw(st.floats(0.1, 10.0)),
                          n=draw(st.integers(1, 30)),
                          # about one point in four at zero load, as where a
                          # lambda pre-scan starts
                          lam=0.0 if draw(st.integers(0, 3)) == 3 else draw(st.floats(1e-5, 0.05)),
                          capacity_k=k, slot_d=draw(st.floats(0.2, 2.0)),
                          p_detect=draw(_PROBABILITY), p_false_alarm=draw(_PROBABILITY),
                          theta=draw(_PROBABILITY), xi=draw(_PROBABILITY))
              for _ in range(draw(st.integers(1, 8)))]
    return points, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_stacks())
def test_stacked_constraint_pass_matches_one_point(case):
    points, max_drop, max_interference = case
    constraints = Constraints(max_drop, max_interference)
    chains = build_chains(points)
    pi, residual = stationary_vectors(chains)
    stacked = _reports(points, chains, pi, residual.tolist(), constraints)
    for params, got, probed in zip(points, stacked, qos_reports(points, constraints)):
        one = repr(evaluate_qos(params, max_drop, max_interference))
        assert repr(got) == repr(probed) == one
        assert repr(qos_reports([params], constraints)) == f"[{one}]"


def test_service_success_override_runs_through_the_stack():
    points = [make_params(lam=lam, p_detect=pd)
              for lam, pd in ((0.0, 0.9), (0.001, 0.9), (0.02, 0.6), (0.05, 1.0))]
    for synchronized in (False, True):
        for params, got in zip(points, qos_reports(points, None, synchronized=synchronized)):
            assert repr(got) == repr(evaluate_qos(params, synchronized=synchronized))
    # The flag reaches the chains: a00 carries more than off_persist does.
    sync = qos_reports(points, None, synchronized=True)
    assert sync[2].carried_load > qos_reports(points, None)[2].carried_load


def test_the_synchronized_flag_is_a_keyword_bool():
    # A probability passed positionally, or any non-bool flag, is refused
    # rather than read as truthy.
    params = make_params()
    with pytest.raises(TypeError):
        qos_reports([params], None, 0.37)
    with pytest.raises(TypeError):
        build_chains([params], True)
    for flag in (0.37, 1, np.True_, None):
        with pytest.raises(InvalidParameterError, match="synchronized must be a bool"):
            qos_reports([params], None, synchronized=flag)
        with pytest.raises(InvalidParameterError, match="synchronized must be a bool"):
            evaluate_qos(params, synchronized=flag)


def test_a_failing_synchronized_stack_raises_as_one_and_is_built_once(monkeypatch):
    ok = make_params()
    short_off = make_params(mu_on=0.1, mu_off=10.0)
    # The phase never moves within such a short slot and nothing arrives,
    # so every law on the empty level is stationary.
    singular = make_params(mu_on=1e-300, mu_off=1e-300, slot_d=1e-300, lam=0.0)
    # The stack's singular solve raises the singular point's own error,
    # type and text.
    with pytest.raises(NoConvergenceError) as alone:
        evaluate_qos(singular, synchronized=True)
    with pytest.raises(NoConvergenceError) as stacked:
        qos_reports([ok, singular, short_off], None, synchronized=True)
    assert alone.value.residual == stacked.value.residual == math.inf
    assert str(alone.value) == str(stacked.value)
    # The stack is built once, with the flag, and not replayed point by point.
    flags = []

    def spy(points, *, synchronized=False):
        flags.append(synchronized)
        return build_chains(points, synchronized=synchronized)

    monkeypatch.setattr(metrics, "build_chains", spy)
    with pytest.raises(NoConvergenceError):
        qos_reports([ok, singular, short_off], None, synchronized=True)
    assert flags == [True]


_SIGNED_PROBABILITY = st.one_of(st.just(-0.0), _PROBABILITY)


@st.composite
def _cells(draw):
    """One cell at K <= 20, with the corners the report sums must keep."""
    kind = draw(st.sampled_from(["plain", "zero-load", "underflowing-load", "saturated",
                                 "never-serving"]))
    lam = {"plain": draw(st.floats(1e-5, 0.05)), "zero-load": draw(st.sampled_from([0.0, -0.0])),
           "underflowing-load": 1e-310, "saturated": draw(st.floats(0.5, 2.0)),
           "never-serving": draw(st.floats(1e-5, 0.05))}[kind]
    return make_params(mu_on=draw(st.floats(0.1, 10.0)), mu_off=draw(st.floats(0.1, 10.0)),
                       n=draw(st.integers(1, 30)), lam=lam, capacity_k=draw(st.integers(1, 20)),
                       slot_d=1e-20 if kind == "underflowing-load" else draw(st.floats(0.2, 2.0)),
                       p_detect=draw(_PROBABILITY), p_false_alarm=draw(_PROBABILITY),
                       theta=1.0 if kind == "never-serving" else draw(_SIGNED_PROBABILITY),
                       xi=draw(_SIGNED_PROBABILITY))


def _clamped(value):
    return min(1.0, max(0.0, value))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_cells())
def test_report_sums_are_the_state_order_running_sums_bit_for_bit(params):
    # The reference sums the state-order law through masks of the state
    # triples, adding left to right; repr of a float keeps every bit and
    # the sign of a zero.
    tm = build_transition_matrix(params)
    pi = stationary_distribution(tm).vector
    states = list(zip(tm.space.queue.tolist(), tm.space.phase.tolist(),
                      tm.space.action.tolist()))

    def total(keep):
        return float(np.cumsum(pi[[keep(ph, a) for _, ph, a in states]])[-1])

    carried = _clamped(float(tm.service_success[0])
                       * total(lambda ph, a: ph == Phase.OFF and a == Action.SERVE))
    queue = float(np.cumsum(np.array([i for i, _, _ in states]) * pi)[-1])
    drop = 0.0 if queue == 0.0 else 1.0 - carried / params.traffic.mean_arrivals_per_slot
    lam_eff = params.traffic.aggregate_rate * (1.0 - max(drop, 0.0))
    want = {
        "carried_load": carried,
        "interference_prob": _clamped(total(lambda ph, a: ph == Phase.ON and a != Action.IDLE)),
        "charge_frac": _clamped(total(lambda ph, a: a == Action.CHARGE)),
        "drop_prob": 0.0 if drop < 0.0 else drop,
        "wait_slot_avg": queue / lam_eff if queue != 0.0 and lam_eff > 0.0 else None,
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = evaluate_qos(params)
    # Only a carried load past the offered load by more than 1e-12 warns.
    assert [str(w.message) for w in caught] == (
        ["carried load exceeds offered load numerically; clamping"] if drop < -1e-12 else [])
    for name, value in want.items():
        assert repr(getattr(report, name)) == repr(value), name
