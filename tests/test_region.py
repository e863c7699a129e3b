import functools
import math
import warnings
from dataclasses import replace
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criotq import (BETA_CEIL, BETA_FLOOR, Constraints, CriticalResult,
                    InvalidParameterError, SensingModel, SimConfig, activity_factor,
                    build_transition_matrix, critical_beta, critical_lambda, evaluate_qos,
                    feasibility_check, params_with_activity, required_power, run_simulation,
                    slot_kernel, sweep, synchronized_baseline)
from criotq import metrics, region
from criotq.errors import MetricRangeError, NoConvergenceError
from criotq.metrics import qos_reports, saturation
from conftest import make_params, time_limit

ANCHOR_CONSTRAINTS = Constraints(max_drop=0.1, max_interference=0.1)


# --- full-probe reference searches -----------------------------------------
# The searches as they ran with every probe a full feasibility_check and the
# answer carrying its own probe's report.  The searches must return the
# same CriticalResult, repr for repr.

def literal_largest_feasible(probe, lo, hi, tol):
    xs = [float(x) for x in np.linspace(lo, hi, 32)]
    scan = [probe(x) for x in xs]
    flags = [ok for ok, _ in scan]
    if not flags[0]:
        return CriticalResult(value=None, feasible_at_floor=False, monotone=True,
                              capped=False, report=None)
    if all(flags):
        return CriticalResult(value=xs[-1], feasible_at_floor=True, monotone=True,
                              capped=True, report=scan[-1][1])
    first_bad = flags.index(False)
    a, b, report = xs[first_bad - 1], xs[first_bad], scan[first_bad - 1][1]
    monotone = not any(flags[first_bad:])
    while monotone and b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break  # a and b are adjacent floats
        ok, mid_report = probe(mid)
        if ok:
            a, report = mid, mid_report
        else:
            b = mid
    return CriticalResult(value=a, feasible_at_floor=True, monotone=monotone,
                          capped=False, report=report)


def literal_critical_beta(params, constraints, tol=1e-3):
    def probe(beta):
        return feasibility_check(params_with_activity(params, beta), constraints)

    return literal_largest_feasible(probe, BETA_FLOOR, BETA_CEIL, tol)


def literal_critical_lambda(params, constraints, tol=1e-3):
    @functools.cache
    def probe(lam):
        return feasibility_check(replace(params, traffic=replace(params.traffic, lam=lam)),
                                 constraints)

    lam0 = params.traffic.lam
    if lam0 <= 0:
        lam0 = 1.0 / (params.traffic.n * params.traffic.slot_d)
    hi = lam0
    doublings = 0
    while (probed := probe(hi))[0]:
        if doublings >= 20:
            return CriticalResult(value=hi, feasible_at_floor=True, monotone=True,
                                  capped=True, report=probed[1])
        hi *= 2.0
        doublings += 1
    return literal_largest_feasible(probe, 0.0, hi, tol)


def _hump_cell():
    """A cell whose power need rises and then falls again with beta.

    The charging budget scales with 1 - beta while the carried load
    collapses faster near saturation, so with drop and interference
    relaxed the feasible set in beta is not a prefix.
    """
    params = make_params(capacity_k=4, lam=0.005)
    return replace(params, power=replace(params.power, energy_per_packet=1.0, p_max=0.14))


def _random_cell(rng):
    params = make_params(
        mu_on=float(10 ** rng.uniform(-0.5, 0.5)), n=int(rng.integers(5, 30)),
        lam=float(rng.choice([0.0, 10 ** rng.uniform(-3.5, -1.5)])),
        capacity_k=int(rng.integers(1, 9)), slot_d=float(rng.choice([1.0, rng.uniform(0.2, 2)])),
        p_detect=float(rng.uniform(0.6, 1.0)), p_false_alarm=float(rng.uniform(0.0, 0.4)),
        theta=float(rng.uniform(0.0, 0.5)), xi=float(rng.uniform(0.1, 0.9)))
    cons = Constraints(max_drop=float(rng.choice([1.0, rng.uniform(0.01, 0.5)])),
                       max_interference=float(rng.choice([1.0, rng.uniform(0.0, 0.2)])))
    return params, cons


def _benchmark_sized_cell(rng, capacity_k, tol):
    """A cell of the region benchmark's size and ranges, with either tolerance.

    "abs" is the beta search's 1e-3; "rel" is 1e-3 of the rate, the lambda
    search's, which makes the bisection run for about ten steps.
    """
    lam = float(10 ** rng.uniform(math.log10(5e-4), math.log10(2e-3)))
    params = make_params(lam=lam, capacity_k=capacity_k, p_detect=float(rng.uniform(0.8, 1.0)),
                         p_false_alarm=float(rng.uniform(0.0, 0.3)),
                         theta=float(rng.uniform(0.0, 0.4)), xi=float(rng.uniform(0.2, 0.7)))
    params = params_with_activity(params, float(rng.uniform(0.1, 0.5)))
    return params, ANCHOR_CONSTRAINTS, 1e-3 if tol == "abs" else 1e-3 * lam


def test_searches_match_full_probe_reference(monkeypatch):
    rng = np.random.default_rng(20231)
    cases = [(_hump_cell(), Constraints(1.0, 1.0), 1e-3),
             (make_params(capacity_k=3), Constraints(0.1, 0.0), 1e-3),
             (make_params(capacity_k=3), Constraints(1.0, 1.0), 1e-3),
             (make_params(capacity_k=5, lam=0.002), ANCHOR_CONSTRAINTS, 1e-5),
             # The whole first doubling stack lies above the saturation rate.
             (make_params(lam=0.01), ANCHOR_CONSTRAINTS, 1e-6),
             # Poor detection: the interference floor passes its limit.
             (make_params(p_detect=0.2, lam=0.0005), ANCHOR_CONSTRAINTS, 1e-4)]
    cases += [(*_random_cell(rng), float(rng.choice([1e-2, 1e-3, 1e-4]))) for _ in range(10)]
    cases += [_benchmark_sized_cell(rng, k, tol) for k in (10, 15, 20) for tol in ("abs", "rel")]
    seen = set()
    ruled_out = region._ruled_out

    def recorded(point, constraints):
        skip = ruled_out(point, constraints)
        if skip:
            floor = saturation(point).interference_floor
            seen.add("interference floor skip" if floor > constraints.max_interference + 1e-9
                     else "drop floor skip")
        return skip
    monkeypatch.setattr(region, "_ruled_out", recorded)
    for params, cons, tol in cases:
        for search, literal in ((critical_beta, literal_critical_beta),
                                (critical_lambda, literal_critical_lambda)):
            got = search(params, cons, tol)
            assert repr(got) == repr(literal(params, cons, tol))
            if got.value is None:
                seen.add("infeasible floor")
            elif got.capped:
                seen.add("capped")
            elif not got.monotone:
                seen.add("non-monotone")
            else:
                seen.add("bisected")
    assert seen == {"infeasible floor", "capped", "non-monotone", "bisected",
                    "drop floor skip", "interference floor skip"}


_UNIT = st.floats(0.0, 1.0)


@st.composite
def _floor_cases(draw):
    """A point of the parameter box at K <= 20 and limits, often near a floor.

    The rate and the interference limit are drawn either freely or as a
    factor of the rate and limit at which a floor meets its limit, margin
    included, so that many points sit just past or just short of it.
    """
    cell = make_params(mu_on=draw(st.floats(0.1, 10.0)), mu_off=draw(st.floats(0.1, 10.0)),
                       n=draw(st.integers(1, 30)), capacity_k=draw(st.integers(1, 20)),
                       slot_d=draw(st.floats(0.2, 2.0)), p_detect=draw(_UNIT),
                       p_false_alarm=draw(_UNIT), theta=draw(_UNIT), xi=draw(_UNIT))
    near = st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-10, 1.0 + 1e-8, 1.5, 4.0])
    sat = saturation(cell)
    max_drop = draw(st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 0.99)))
    if draw(st.booleans()) and sat.capacity > 0.0:
        lam = sat.lambda_sat / (1.0 - max_drop - 1e-9) * draw(near)
    else:
        lam = draw(st.floats(1e-5, 0.05))
    if draw(st.booleans()):
        max_interference = min(1.0, (sat.interference_floor - 1e-9) * draw(near))
    else:
        max_interference = draw(_UNIT)
    point = replace(cell, traffic=replace(cell.traffic, lam=lam))
    return point, Constraints(max_drop, max(0.0, max_interference))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_floor_cases())
def test_every_point_the_floors_rule_out_is_infeasible_when_solved(case):
    point, constraints = case
    if region._ruled_out(point, constraints):
        report = evaluate_qos(point, constraints.max_drop, constraints.max_interference)
        assert report.feasible is False


def _threshold_probe(cut, stacks, fails=()):
    """A stack probe whose x is feasible up to cut, raising at a point in fails.

    Like the region probe, a stack holding a failing point gives only its
    first needed points (all when needed is None), taken in order, and
    raises at the first failing one of those.  Each call's points are
    appended to stacks.
    """
    def probe(xs, needed=None):
        stacks.append(list(xs))
        if any(x in fails for x in xs):
            xs = xs[:needed]
        for x in xs:
            if x in fails:
                raise fails[x]
        return [SimpleNamespace(feasible=x <= cut) for x in xs]
    return probe


@pytest.mark.parametrize("error", [InvalidParameterError("unprobeable"),
                                   NoConvergenceError("no solve", residual=math.inf),
                                   MetricRangeError("carried load outside [0, 1]")])
def test_bisection_raises_only_where_the_sequential_search_raises(error):
    cut, tol = 0.6180339887, 1e-4
    sequential = []
    want = literal_largest_feasible(
        lambda x: (sequential.append(x) or x <= cut, SimpleNamespace(feasible=x <= cut)),
        0.0, 1.0, tol)
    stacks = []
    assert repr(region._largest_feasible(_threshold_probe(cut, stacks), 0.0, 1.0, tol)) \
        == repr(want)
    assert len(stacks) < len(sequential)
    speculative = {x for xs in stacks for x in xs} - set(sequential)
    assert speculative
    for x in speculative:
        got = region._largest_feasible(_threshold_probe(cut, [], {x: error}), 0.0, 1.0, tol)
        assert repr(got) == repr(want)
    with pytest.raises(type(error)):
        region._largest_feasible(_threshold_probe(cut, [], {sequential[-1]: error}),
                                 0.0, 1.0, tol)


def test_a_pre_scan_holding_a_singular_point_raises_as_the_point_by_point_search(monkeypatch):
    # The phase never moves within such a short slot and nothing arrives,
    # so every law on the empty level is stationary.
    singular = make_params(mu_on=1e-300, mu_off=1e-300, slot_d=1e-300, lam=0.0)
    with pytest.raises(NoConvergenceError) as alone:
        evaluate_qos(singular)
    # At this light load flow balance overshoots by more than 1e-12 and
    # warns, so the warnings show which points ran before the failing one.
    noisy = make_params(lam=1.4e-6)
    with pytest.warns(RuntimeWarning):
        evaluate_qos(noisy)
    # The 32 pre-scan points of [0, 31] are its integers; this axis takes
    # each to one point of the list, so the singular point is the fourth.
    points = [make_params(lam=0.0), noisy, make_params(lam=0.01), singular, *[noisy] * 28]
    monkeypatch.setitem(region._AXES, "listed", lambda params, x: points[int(x)])
    stacks = _counting_probes(monkeypatch)

    def literal_probe(x):
        return feasibility_check(points[int(x)], ANCHOR_CONSTRAINTS)
    searches = [lambda: region._largest_feasible(
                    region._prober(noisy, "listed", ANCHOR_CONSTRAINTS, 1e-3), 0.0, 31.0, 1e-3),
                lambda: literal_largest_feasible(literal_probe, 0.0, 31.0, 1e-3)]
    for search, calls in zip(searches, ([31, 1, 1, 1], [1, 1, 1, 1])):
        stacks.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NoConvergenceError) as raised:
                search()
        assert str(raised.value) == str(alone.value)
        assert raised.value.residual == math.inf
        assert len(caught) == 1
        # The search's whole stack failed, then its points ran alone up to
        # the singular one; its drop floor skips the point at rate 0.01.
        assert [len(stack) for stack in stacks] == calls


def _counting_probes(monkeypatch, failing_lams=()):
    """Record the points of every qos_reports call the searches make.

    A stack holding a point whose rate is in failing_lams raises, as
    qos_reports raises at a point it cannot build.
    """
    stacks = []

    def counted(points, constraints):
        stacks.append(points)
        if any(p.traffic.lam in failing_lams for p in points):
            raise InvalidParameterError("unprobeable rate")
        return qos_reports(points, constraints)
    monkeypatch.setattr(region, "qos_reports", counted)
    return stacks


def test_critical_beta_takes_two_bisection_levels_per_probe(baseline_params, monkeypatch):
    stacks = _counting_probes(monkeypatch)
    res = critical_beta(baseline_params, ANCHOR_CONSTRAINTS, tol=1e-3)
    assert res.monotone and not res.capped and res.value is not None
    # A grid bracket of (BETA_CEIL - BETA_FLOOR)/31 = 0.032 takes six
    # halvings to reach 1e-3: one pre-scan, then the six levels two per call.
    width = (BETA_CEIL - BETA_FLOOR) / 31
    assert width / 2 ** 5 > 1e-3 >= width / 2 ** 6
    assert len(stacks) == 1 + math.ceil(6 / 2) == 4


def test_critical_lambda_makes_fewer_probe_calls_than_one_point_probes(baseline_params,
                                                                      monkeypatch):
    lam0 = baseline_params.traffic.lam
    tol = 1e-3 * lam0
    doublings = 0
    while feasibility_check(replace(baseline_params, traffic=replace(
            baseline_params.traffic, lam=lam0 * 2 ** doublings)), ANCHOR_CONSTRAINTS)[0]:
        doublings += 1
    depth = math.ceil(math.log2(lam0 * 2 ** doublings / 31 / tol))
    sequential = (doublings + 1) + 1 + depth
    stacks = _counting_probes(monkeypatch)
    res = critical_lambda(baseline_params, ANCHOR_CONSTRAINTS, tol=tol)
    assert res.monotone and not res.capped
    assert len(stacks) == math.ceil((doublings + 1) / 3) + 1 + math.ceil(depth / 2)
    assert len(stacks) < sequential


def test_critical_lambda_doubling_past_a_failing_speculative_end(monkeypatch):
    # Interference binds in this cell, far below the saturation rate.
    params = make_params(p_detect=0.5, theta=0.0, xi=0.2)
    lam0 = params.traffic.lam
    want = critical_lambda(params, ANCHOR_CONSTRAINTS)
    # The first stack is lam0 * (1, 2, 4); the one-at-a-time doubling stops
    # at 2 * lam0 (the answer lies between lam0 and it), so 4 * lam0 is
    # speculative and the search must not raise there.  Neither floor rules
    # 4 * lam0 out, so the probe does build it.
    assert lam0 < want.value < 2 * lam0
    sat = saturation(params)
    assert 4 * lam0 < sat.lambda_sat / (1.0 - ANCHOR_CONSTRAINTS.max_drop)
    assert sat.interference_floor < ANCHOR_CONSTRAINTS.max_interference
    stacks = _counting_probes(monkeypatch, failing_lams={4 * lam0})
    assert repr(critical_lambda(params, ANCHOR_CONSTRAINTS)) == repr(want)
    assert [p.traffic.lam for p in stacks[1]] == [lam0]


def test_a_doubling_stack_whose_speculative_end_fails_replays_only_its_first_end(monkeypatch):
    params = make_params(p_detect=0.5, theta=0.0, xi=0.2)
    lam0 = params.traffic.lam
    want = critical_lambda(params, ANCHOR_CONSTRAINTS)
    assert lam0 < want.value < 2 * lam0
    builds = []
    build = metrics.build_chains

    def unbuildable_at_4_lam0(points, *, synchronized=False):
        builds.append([p.traffic.lam for p in points])
        if 4 * lam0 in builds[-1]:
            raise InvalidParameterError("unbuildable rate")
        return build(points, synchronized=synchronized)
    monkeypatch.setattr(metrics, "build_chains", unbuildable_at_4_lam0)
    assert repr(critical_lambda(params, ANCHOR_CONSTRAINTS)) == repr(want)
    # Each failing stack is built once and then replayed as its first end
    # alone: its speculative ends are never built one at a time.  The drop
    # floor skips 8 * lam0, so the second stack builds two ends.
    assert region._ruled_out(region._with_lambda(params, 8 * lam0), ANCHOR_CONSTRAINTS)
    assert builds[:4] == [[lam0, 2 * lam0, 4 * lam0], [lam0], [2 * lam0, 4 * lam0], [2 * lam0]]
    assert all(len(lams) > 1 or lams[0] <= 2 * lam0 for lams in builds)


def test_critical_lambda_doubling_never_probes_past_the_cap(baseline_params, monkeypatch):
    stacks = _counting_probes(monkeypatch)
    res = critical_lambda(baseline_params, Constraints(max_drop=1.0, max_interference=1.0))
    assert res.capped
    lams = [p.traffic.lam for points in stacks for p in points]
    assert max(lams) == res.value == 0.001 * 2 ** 20
    # The 21 bracket ends lam0 * 2**0..20 fill seven stacks of three.
    assert len(stacks) == 21 / region._DOUBLING_STEPS == 7


def test_probe_flag_is_the_report_flag():
    rng = np.random.default_rng(7121)
    cells = [(make_params(lam=0.0), ANCHOR_CONSTRAINTS),
             (make_params(lam=5.0), ANCHOR_CONSTRAINTS),
             (make_params(theta=1.0, lam=0.01), ANCHOR_CONSTRAINTS),
             (make_params(p_false_alarm=1.0, lam=0.01), Constraints(1.0, 1.0)),
             (_hump_cell(), Constraints(1.0, 1.0))]
    cells += [_random_cell(rng) for _ in range(25)]
    flags = set()
    for params, cons in cells:
        for beta in (0.05, 0.5, 0.95):
            at = params_with_activity(params, beta)
            want = evaluate_qos(at, cons.max_drop, cons.max_interference)
            assert repr(qos_reports([at], cons)) == f"[{want!r}]"
            flags.add(want.feasible)
    assert flags == {True, False}


def test_constraints_validation():
    with pytest.raises(InvalidParameterError):
        Constraints(max_drop=-0.1, max_interference=0.1)
    with pytest.raises(InvalidParameterError):
        Constraints(max_drop=0.1, max_interference=1.5)


@pytest.mark.parametrize("bad", [True, "0.1", 10**400, np.False_, Decimal("0.1")],
                         ids=["bool", "string", "int-overflow", "numpy-bool", "decimal"])
def test_constraints_refuse_what_is_not_a_finite_number(bad):
    with pytest.raises(InvalidParameterError, match=r"max_drop must lie in \[0, 1\]"):
        Constraints(bad, 0.1)
    with pytest.raises(InvalidParameterError, match=r"max_interference must lie in \[0, 1\]"):
        Constraints(0.1, bad)


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


@pytest.mark.parametrize("search", [critical_beta, critical_lambda])
@pytest.mark.parametrize("tol", [math.nan, math.inf, True, "1e-3",
                                 pytest.param(10**400, id="int-overflow"),
                                 pytest.param(np.True_, id="numpy-bool"),
                                 pytest.param(Decimal("1e-3"), id="decimal")])
def test_searches_reject_a_non_finite_tolerance(baseline_params, search, tol):
    with pytest.raises(InvalidParameterError, match="tol must be finite and positive"):
        search(baseline_params, ANCHOR_CONSTRAINTS, tol)


@pytest.mark.parametrize("search, tol, at", [
    (critical_beta, 1e-300, params_with_activity),
    (critical_lambda, 1e-30, lambda p, lam: replace(p, traffic=replace(p.traffic, lam=lam))),
])
def test_bisection_below_the_float_spacing_stops_at_adjacent_floats(baseline_params, search,
                                                                    tol, at):
    # Once a and b are adjacent floats, 0.5*(a+b) is one of them: the search
    # must stop there rather than loop, and answer a float whose next float up
    # is infeasible.
    with time_limit(10.0):
        res = search(baseline_params, ANCHOR_CONSTRAINTS, tol)
    assert res.monotone and not res.capped
    cons = (ANCHOR_CONSTRAINTS.max_drop, ANCHOR_CONSTRAINTS.max_interference)
    assert evaluate_qos(at(baseline_params, res.value), *cons).feasible
    assert not evaluate_qos(at(baseline_params, math.nextafter(res.value, 1.0)), *cons).feasible


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


# --- the chain-free saturation bound -----------------------------------------
# A packet leaves only in a slot that starts OFF (mass 1 - beta), looks free,
# draws neither the idle nor the charge coin and sees no switch, so the
# carried load per slot is at most c = (1 - beta)(1 - p_f)(1 - theta)(1 - xi)
# off_persist and P_B >= 1 - c / rho (Loynes' saturation argument).  The drop
# limit then caps lambda_c at c / ((1 - max_drop) n slot_d).  A slot that
# starts ON (mass beta) interferes at most when it looks free and skips the
# idle coin, and at least when it then charges, which an empty queue does
# too, so P_I lies in [beta (1 - p_d)(1 - theta) xi, beta (1 - p_d)(1 - theta)].
# metrics.saturation gives c, lambda_sat = c / (n slot_d) and the floor.

def test_saturation_is_the_closed_form():
    params = params_with_activity(make_params(p_detect=0.7, p_false_alarm=0.2, theta=0.3,
                                              xi=0.4, slot_d=0.5), 0.25)
    sat = saturation(params)
    c = 0.75 * 0.8 * 0.7 * 0.6 * slot_kernel(params.pnp, 0.5).off_persist
    assert sat.capacity == pytest.approx(c, rel=1e-15)
    assert sat.lambda_sat == pytest.approx(c / (20 * 0.5), rel=1e-15)
    assert sat.interference_floor == pytest.approx(0.25 * 0.3 * 0.7 * 0.4, rel=1e-15)


def test_critical_lambda_stays_under_the_saturation_rate(monkeypatch):
    probed = []

    def recorded(points, constraints):
        reports = qos_reports(points, constraints)
        probed.extend(zip(points, reports))
        return reports
    monkeypatch.setattr(region, "qos_reports", recorded)
    rng = np.random.default_rng(40721)
    bounded = 0
    for k_cap in (1, 2, 5, 10, 15, 20) * 10:
        cell = make_params(capacity_k=k_cap, lam=float(10 ** rng.uniform(-4, -2)),
                           p_detect=float(rng.uniform(0.5, 1.0)),
                           p_false_alarm=float(rng.uniform(0.0, 0.5)),
                           theta=float(rng.uniform(0.0, 0.6)), xi=float(rng.uniform(0.0, 0.9)))
        params = params_with_activity(cell, float(rng.uniform(0.05, 0.95)))
        limits = Constraints(*rng.uniform(0.01, 0.5, size=2).tolist())
        res = critical_lambda(params, limits, tol=1e-3 * params.traffic.lam)
        if res.value is not None and not res.capped:
            rate = saturation(params).lambda_sat / (1.0 - limits.max_drop)
            assert res.value <= rate * (1.0 + 1e-9)
            bounded += 1
    assert bounded >= 50
    for p, report in probed:
        busy = activity_factor(p.pnp) * (1.0 - p.sensing.p_detect) * (1.0 - p.policy.theta_idle)
        assert busy * p.policy.xi_charge - 1e-12 <= report.interference_prob <= busy + 1e-12


def test_critical_lambda_meets_the_saturation_rate_at_large_k():
    # A deep buffer turns nothing away until the queue saturates, so the
    # drop limit binds within tol of the bound.
    for k_cap in (100, 200):
        params = make_params(capacity_k=k_cap, lam=0.02)
        res = critical_lambda(params, ANCHOR_CONSTRAINTS, tol=1e-6)
        rate = saturation(params).lambda_sat / (1.0 - ANCHOR_CONSTRAINTS.max_drop)
        assert 0.0 <= rate - res.value <= 1e-6, k_cap


# --- the boundary against the simulator --------------------------------------
# One K=10 cell per binding limit.  At (1 -/+ delta) lambda_c the simulated
# binding metric must lie on the feasible / infeasible side of its limit by
# at least 3 SE, and agree with the model within 4 SE.  Each run has its own
# seed, fixed with delta before the first run.

_BOUNDARY_DELTA = 0.1
_BOUNDARY_SLOTS = 1_000_000
_BOUNDARY_BASE = make_params()
_BOUNDARY_CELLS = {
    "drop": (_BOUNDARY_BASE, (52101, 52102)),
    "interference": (make_params(p_detect=0.5, theta=0.0, xi=0.2), (52103, 52104)),
    "power": (replace(_BOUNDARY_BASE, power=replace(_BOUNDARY_BASE.power, energy_per_packet=100.0)),
              (52105, 52106)),
}


@pytest.mark.parametrize("limit", sorted(_BOUNDARY_CELLS))
def test_critical_lambda_boundary_matches_the_simulator(limit):
    params, seeds = _BOUNDARY_CELLS[limit]
    lam_c = critical_lambda(params, ANCHOR_CONSTRAINTS, tol=1e-9).value
    bound = ANCHOR_CONSTRAINTS.max_interference if limit == "interference" \
        else ANCHOR_CONSTRAINTS.max_drop
    for factor, seed in zip((1.0 - _BOUNDARY_DELTA, 1.0 + _BOUNDARY_DELTA), seeds):
        feasible_side = factor < 1.0
        at = replace(params, traffic=replace(params.traffic, lam=factor * lam_c))
        model = evaluate_qos(at)
        sim = run_simulation(SimConfig(params=at, horizon_slots=_BOUNDARY_SLOTS, seed=seed))
        if limit == "interference":
            hat, se, predicted = sim.interference_hat, sim.interference_se, model.interference_prob
        else:
            hat, se, predicted = sim.drop_prob_hat, sim.drop_prob_se, model.drop_prob
        assert se > 0.0
        assert abs(hat - predicted) <= 4.0 * se, (factor, hat, se, predicted)
        if limit == "power":
            # The simulated drop 3 SE to the side that asks the most power
            # below lambda_c, and the least above it.
            drop = hat - 3.0 * se if feasible_side else hat + 3.0 * se
            need = required_power(at, drop).total
            assert (need <= at.power.p_max) == feasible_side, (factor, need)
        elif feasible_side:
            assert hat + 3.0 * se <= bound, (factor, hat, se)
        else:
            assert hat - 3.0 * se > bound, (factor, hat, se)


def _with_detection(params, p_detect):
    return replace(params, sensing=SensingModel(p_detect, params.sensing.p_false_alarm))


def test_sweep_matches_pointwise_search(baseline_params):
    results = sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="detection",
                    grid=[0.9], target="beta_c", tol=1e-3)
    single = critical_beta(_with_detection(baseline_params, 0.9), ANCHOR_CONSTRAINTS, tol=1e-3)
    assert len(results) == 1
    assert repr(results[0]) == repr(single)


def test_sweep_preserves_grid_order(baseline_params):
    grid = [0.95, 0.85, 0.9]
    results = sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="detection",
                    grid=grid, target="beta_c")
    assert len(results) == len(grid)
    for v, got in zip(grid, results):
        want = critical_beta(_with_detection(baseline_params, v), ANCHOR_CONSTRAINTS)
        assert repr(got) == repr(want)
    # The reports differ by grid value, so a reordered list fails above.
    assert len({repr(r) for r in results}) == len(grid)


def test_sweep_false_alarm_axis(baseline_params):
    results = sweep(baseline_params, ANCHOR_CONSTRAINTS, axis="false-alarm",
                    grid=[0.0, 0.4], target="lambda_c", tol=1e-3)
    assert all(isinstance(r, CriticalResult) and r.value is not None for r in results)
    assert results[1].value <= results[0].value + 1e-3


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


def test_synchronized_baseline_is_its_perfect_sensing_point_with_the_a00_override(
        baseline_params):
    sync = replace(baseline_params, sensing=SensingModel(p_detect=1.0, p_false_alarm=0.0))
    a00 = slot_kernel(sync.pnp, sync.traffic.slot_d).a00
    assert build_transition_matrix(sync, synchronized=True).service_success[0] == a00
    want = qos_reports([sync], None, synchronized=True)[0]
    assert repr(synchronized_baseline(baseline_params)) == repr(want)


def test_synchronized_baseline_converges_for_short_slots():
    # With slots much shorter than the OFF periods a transmission almost
    # always fits, so the collision penalty vanishes.
    params = make_params(slot_d=0.05, lam=0.02)
    base = synchronized_baseline(params)
    perfect = replace(params, sensing=SensingModel(p_detect=1.0, p_false_alarm=0.0))
    full = evaluate_qos(perfect)
    assert base.wait_slot_avg == pytest.approx(full.wait_slot_avg, rel=0.02)
    assert base.drop_prob == pytest.approx(full.drop_prob, rel=0.05, abs=1e-9)

