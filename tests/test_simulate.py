import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from criotq import (Action, InvalidParameterError, Phase, PnpModel, SimConfig,
                    activity_factor, build_transition_matrix,
                    departure_distributions, enumerate_states, evaluate_qos,
                    run_simulation, slot_kernel, stationary_distribution)
from criotq import simulate
from criotq.simulate import (_CHARGE, _CHUNK, _DROP, _GEN, _INTERF, _SERVE, _SLOTS,
                             NUM_BATCHES, _simulate_one, _switch_rank)
from conftest import make_params, time_limit
from montecarlo import _renewal_endpoints, estimate_slot_kernel, estimate_transition_row


class _DurationFeed:
    """Buffered exponential phase durations, one stream per phase."""

    __slots__ = ("_rng", "_scale", "_buf", "_pos", "_block")

    def __init__(self, rng: np.random.Generator, mu_on: float, mu_off: float,
                 block: int = 8192):
        self._rng = rng
        self._scale = (1.0 / mu_off, 1.0 / mu_on)  # index = phase being held
        self._buf: list[list[float]] = [[], []]
        self._pos = [0, 0]
        self._block = block

    def next(self, phase: int) -> float:
        pos = self._pos[phase]
        buf = self._buf[phase]
        if pos >= len(buf):
            buf = self._rng.exponential(self._scale[phase], self._block).tolist()
            self._buf[phase] = buf
            pos = 0
        self._pos[phase] = pos + 1
        return buf[pos]


def literal_simulate_one(params, horizon, warmup, seed, rep_index):
    """Slot-by-slot reference for the simulator's array construction.

    Walks every slot in Python: advances the renewal phase through each
    switch inside the slot, draws the decision, admits arrivals into a
    FIFO, and clears the head packet on a covered serving slot.  It
    consumes the same random streams in the same order as
    `_simulate_one`, so their tallies must agree bit for bit.
    """
    ss = np.random.SeedSequence([seed, rep_index])
    phase_ss, flow_ss = ss.spawn(2)
    phase_rng = np.random.Generator(np.random.PCG64(phase_ss))
    flow_rng = np.random.Generator(np.random.PCG64(flow_ss))

    tr = params.traffic
    k_cap = tr.capacity_k
    d = tr.slot_d
    mean_per_slot = tr.mean_arrivals_per_slot
    pd_, pf = params.sensing.p_detect, params.sensing.p_false_alarm
    theta, xi = params.policy.theta_idle, params.policy.xi_charge
    busy_by_phase = (pf, pd_)
    space = enumerate_states(k_cap)
    measured = horizon - warmup
    meas_t0 = warmup * d

    hist = [0] * space.size
    post_dep = [0] * k_cap
    b_gen = [0] * NUM_BATCHES
    b_drop = [0] * NUM_BATCHES
    b_interf = [0] * NUM_BATCHES
    b_serve = [0] * NUM_BATCHES
    b_charge = [0] * NUM_BATCHES
    b_slots = [0] * NUM_BATCHES
    b_soj_sum = [0.0] * NUM_BATCHES
    b_soj_n = [0] * NUM_BATCHES
    served_tagged = 0

    cur_phase = 1 if phase_rng.random() < activity_factor(params.pnp) else 0
    feed = _DurationFeed(phase_rng, params.pnp.mu_on, params.pnp.mu_off)
    next_switch = feed.next(cur_phase)

    fifo: list[float] = []
    head = 0
    qlen = 0

    for s0 in range(0, horizon, _CHUNK):
        chunk = min(_CHUNK, horizon - s0)
        n_arr = flow_rng.poisson(mean_per_slot, chunk)
        total = int(n_arr.sum())
        if total:
            slots_f = np.repeat(np.arange(s0, s0 + chunk, dtype=np.float64), n_arr)
            ts = (slots_f + flow_rng.random(total)) * d
            ts.sort()
            ts_l = ts.tolist()
        else:
            flow_rng.random(0)
            ts_l = []
        offsets = np.zeros(chunk + 1, dtype=np.int64)
        np.cumsum(n_arr, out=offsets[1:])
        sense_u = flow_rng.random(chunk)
        theta_u = flow_rng.random(chunk)
        xi_u = flow_rng.random(chunk)
        # Action before considering sensing/queue: 0 idle coin, 2 charge, 1 serve.
        pre_act = np.where(theta_u < theta, 0, np.where(xi_u < xi, 2, 1))
        bat = ((np.arange(s0, s0 + chunk, dtype=np.int64) - warmup) * NUM_BATCHES) // measured

        n_arr_l = n_arr.tolist()
        off_l = offsets.tolist()
        sense_l = sense_u.tolist()
        act_l = pre_act.tolist()
        bat_l = bat.tolist()

        for k in range(chunk):
            s = s0 + k
            phase = cur_phase
            slot_end = (s + 1) * d
            whole = next_switch >= slot_end
            while next_switch < slot_end:
                cur_phase = 1 - cur_phase
                next_switch += feed.next(cur_phase)

            if sense_l[k] < busy_by_phase[phase]:
                act = 0
            else:
                act = act_l[k]
                if act == 1 and qlen == 0:
                    act = 0

            meas = s >= warmup
            if meas:
                b = bat_l[k]
                b_slots[b] += 1
                if qlen == 0:
                    hist[2 * phase + (1 if act == 2 else 0)] += 1
                else:
                    hist[4 + 6 * (qlen - 1) + 3 * phase + act] += 1
                if phase and act:
                    b_interf[b] += 1
                if act == 2:
                    b_charge[b] += 1

            c = n_arr_l[k]
            if c:
                room = k_cap - qlen
                adm = c if c <= room else room
                if adm:
                    lo = off_l[k]
                    fifo.extend(ts_l[lo:lo + adm])
                    qlen += adm
                if meas:
                    b_gen[b] += c
                    if c > adm:
                        b_drop[b] += c - adm

            if act == 1 and phase == 0 and whole:
                t_arr = fifo[head]
                head += 1
                qlen -= 1
                if meas:
                    b_serve[b] += 1
                    post_dep[qlen] += 1
                    b_soj_sum[b] += slot_end - t_arr
                    b_soj_n[b] += 1
                    if t_arr >= meas_t0:
                        served_tagged += 1

        if head > 65536:
            fifo = fifo[head:]
            head = 0

    return dict(hist=hist, post_dep=post_dep, b_gen=b_gen, b_drop=b_drop,
                b_interf=b_interf, b_serve=b_serve, b_charge=b_charge, b_slots=b_slots,
                b_soj_sum=b_soj_sum, b_soj_n=b_soj_n, served_tagged=served_tagged)


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
    with pytest.raises(InvalidParameterError):
        SimConfig(params=params, horizon_slots=100, seed=-3)
    for field in ("horizon_slots", "warmup_slots", "replications", "seed"):
        # A bool is an int to Python, but not a count.
        for bad in (float, lambda _: True):
            kwargs = dict(horizon_slots=1000, seed=1, warmup_slots=100, replications=1)
            kwargs[field] = bad(kwargs[field])
            with pytest.raises(InvalidParameterError, match=field):
                SimConfig(params=params, **kwargs)
    for bad in (None, {"lam": 0.001}):
        with pytest.raises(InvalidParameterError, match="params must be a SystemParams, got "):
            SimConfig(params=bad, horizon_slots=10, seed=1)
    assert SimConfig(params=params, horizon_slots=1000, seed=1).resolved_warmup == 100


def _assert_matches_literal(params, horizon, warmup, seed, rep_index):
    got = _simulate_one(params, horizon, warmup, seed, rep_index)
    want = literal_simulate_one(params, horizon, warmup, seed, rep_index)
    columns = {"b_gen": _GEN, "b_drop": _DROP, "b_interf": _INTERF, "b_serve": _SERVE,
               "b_charge": _CHARGE, "b_slots": _SLOTS, "b_soj_n": _SERVE}
    for name, col in columns.items():
        assert np.array_equal(got.batches[:, col], want[name]), name
    assert np.array_equal(got.soj_sum, want["b_soj_sum"])
    assert np.array_equal(got.hist, want["hist"])
    assert np.array_equal(got.post_dep, want["post_dep"])
    assert got.served_tagged == want["served_tagged"]


LITERAL_CELLS = [dict(capacity_k=k, lam=lam) for k in (1, 10) for lam in (0.0, 0.001, 0.2)] + [
    dict(lam=0.2, theta=1.0),
    dict(lam=0.2, xi=0.0),
    dict(lam=0.2, xi=1.0),
    dict(lam=0.2, p_detect=1.0, p_false_alarm=0.0),
]


@pytest.mark.parametrize("cell", LITERAL_CELLS,
                         ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_array_simulator_matches_literal_loop_on_short_horizons(cell):
    params = make_params(**cell)
    for horizon, warmup in ((1, 0), (7, 0), (7, 3)):
        _assert_matches_literal(params, horizon, warmup, seed=31, rep_index=0)


@pytest.mark.parametrize("cell,warmup", [
    (dict(capacity_k=10, lam=0.01), _CHUNK + 1_000),  # warmup ends inside the second chunk
    (dict(capacity_k=1, lam=0.2), 30_000),  # sojourn sums run across the chunk boundary
])
def test_array_simulator_matches_literal_loop_across_chunks(cell, warmup):
    params = make_params(**cell)
    for rep_index in range(2):
        _assert_matches_literal(params, _CHUNK + 40_000, warmup, seed=77, rep_index=rep_index)


@pytest.mark.parametrize("cell", [
    dict(slot_d=0.37, mu_on=0.7, mu_off=2.3, lam=0.05),
    dict(slot_d=3.0, capacity_k=3, mu_on=0.2, mu_off=0.9, lam=0.01),
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_array_simulator_matches_literal_loop_off_the_unit_grid(cell):
    # Off slot_d = 1 the slot bounds are inexact products, so switch times
    # near a bound can round either way when divided by slot_d.
    _assert_matches_literal(make_params(**cell), 5_000, 500, seed=53, rep_index=0)


@pytest.mark.parametrize("lam", [0.004, 0.008])
def test_array_simulator_matches_literal_loop_as_the_queue_fills_and_drains(lam):
    # Long runs of departures between arrivals empty the queue, and bursts fill it.
    params = make_params(lam=lam)
    _assert_matches_literal(params, 20_000, 0, seed=61, rep_index=0)
    hist = _simulate_one(params, 20_000, 0, 61, 0).hist
    levels = enumerate_states(params.traffic.capacity_k).queue.tolist()
    seen = {j for j, n in zip(levels, hist) if n}
    assert {0, params.traffic.capacity_k} <= seen


@pytest.mark.parametrize("s0", [0, _CHUNK])
def test_switch_rank_matches_binary_search_at_the_bounds(s0):
    # Switches on every slot bound and one ulp either side, where the
    # slot index by division rounds to the wrong side of many of them.
    slot_d = 0.1
    bounds = np.arange(s0, s0 + 1_000) * slot_d
    near = np.concatenate([bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf)])
    switches = np.sort(near[(near >= bounds[0]) & (near < bounds[-1])])
    assert switches.size == 2_997
    want = np.searchsorted(bounds, switches, "right")
    by_division = (switches / slot_d).astype(np.int64) - (s0 - 1)
    assert (by_division != want).any()  # the binary-search fallback has work to do
    rank = _switch_rank(switches, bounds, slot_d, s0)
    assert np.array_equal(rank, want)
    # A running count of the ranks is the number of switches before each bound.
    before = np.cumsum(np.bincount(rank, minlength=bounds.size))
    assert np.array_equal(before, np.searchsorted(switches, bounds))


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


def test_a_run_holds_only_its_chunk_flags_and_counts():
    # The coins are reduced to flags as each row is drawn, and timestamps
    # are built from the arrival slots alone, so one 200,000-slot run
    # peaks near 8 MB traced; float coin rows held through the tally, or
    # a float index of every slot, would take it past 10 MB.
    config = SimConfig(params=make_params(), horizon_slots=200_000, seed=999331)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


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
                  for idx, phi in enumerate(res.space.phase)
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


@pytest.mark.parametrize("lam", [0.001, 0.02])
def test_post_departure_histogram_matches_departure_law(lam):
    # At lam = 0.02 a departure often leaves K - 1 behind, and that level
    # takes every arrival count the full buffer turns away.
    params = make_params(lam=lam)
    run = run_simulation(SimConfig(params=params, horizon_slots=200_000, seed=999331))
    tm = build_transition_matrix(params)
    dd = departure_distributions(stationary_distribution(tm), tm)
    tv = 0.5 * float(np.abs(run.post_departure_histogram - dd.delta).sum())
    assert tv <= 0.03


def test_interference_within_sampling_error(anchor_run):
    want = evaluate_qos(make_params()).interference_prob
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
    trials = 200_000
    est = estimate_slot_kernel(pnp, d, trials=trials, seed=90817)
    for name in ("a00", "a01", "a10", "a11", "off_persist", "on_persist"):
        p = getattr(want, name)
        se = math.sqrt(p * (1.0 - p) / trials)
        assert abs(getattr(est, name) - p) <= 4.0 * se, name
    with pytest.raises(InvalidParameterError):
        estimate_slot_kernel(pnp, d, trials=0, seed=1)


def test_transition_row_needs_a_trial():
    with pytest.raises(InvalidParameterError, match="trials must be >= 1"):
        estimate_transition_row(make_params(), (2, Phase.OFF, Action.IDLE), trials=0, seed=1)


def literal_transition_row(params, source, trials, seed):
    """estimate_transition_row with its three coin rows drawn as one block."""
    tr = params.traffic
    space = enumerate_states(tr.capacity_k)
    i, phase, action = source
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    end_phase, whole = _renewal_endpoints(rng, params.pnp, phase, tr.slot_d, trials)
    n_arr = rng.poisson(tr.mean_arrivals_per_slot, trials)
    j = i + np.minimum(n_arr, tr.capacity_k - i) - (
        whole & (action == Action.SERVE and phase == Phase.OFF))
    sense_u, theta_u, xi_u = rng.random(3 * trials).reshape(3, trials)
    on = end_phase == 1
    busy = np.where(on, sense_u < params.sensing.p_detect, sense_u < params.sensing.p_false_alarm)
    go = ~busy & (theta_u >= params.policy.theta_idle)
    charge = go & (xi_u < params.policy.xi_charge)
    acts = 2 * charge + (go & ~charge & (j >= 1))
    idx = np.searchsorted(space.cell, 6 * j + 3 * end_phase + acts)
    return np.bincount(idx, minlength=space.size) / trials


@pytest.mark.parametrize("lam, source, seed", [
    (lam, (i, phase, action), 100 * i + 10 * int(phase) + int(action))
    for lam in (0.0, 0.05)
    for i, phase, action in ((0, Phase.OFF, Action.IDLE), (1, Phase.OFF, Action.SERVE),
                             (3, Phase.ON, Action.CHARGE), (5, Phase.ON, Action.SERVE),
                             (10, Phase.OFF, Action.SERVE), (10, Phase.ON, Action.IDLE))])
def test_transition_row_draws_its_coins_as_one_block_did(lam, source, seed):
    params = make_params(lam=lam, theta=0.3, xi=0.4)
    got = estimate_transition_row(params, source, trials=5_000, seed=seed)
    want = literal_transition_row(params, source, 5_000, seed)
    assert np.array_equal(got, want)


def _kernel(slot_d=1.0, trials=10, seed=0):
    return estimate_slot_kernel(PnpModel(1.0, 1.0), slot_d, trials, seed)


def _row(source=(2, Phase.OFF, Action.IDLE), trials=10, seed=0):
    return estimate_transition_row(make_params(lam=0.0), source, trials, seed)


_BAD_ESTIMATOR_INPUTS = {
    "kernel-negative-slot": (lambda: _kernel(slot_d=-1.0), "slot_d must be finite and nonnegative"),
    "kernel-nan-slot": (lambda: _kernel(slot_d=math.nan), "slot_d must be finite and nonnegative"),
    "kernel-inf-slot": (lambda: _kernel(slot_d=math.inf), "slot_d must be finite and nonnegative"),
    "kernel-bool-slot": (lambda: _kernel(slot_d=True), "slot_d must be finite and nonnegative"),
    "kernel-string-slot": (lambda: _kernel(slot_d="1"), "slot_d must be finite and nonnegative"),
    "kernel-int-overflow-slot": (lambda: _kernel(slot_d=10**400),
                                 "slot_d must be finite and nonnegative"),
    "kernel-fractional-trials": (lambda: _kernel(trials=2.5), "trials must be an integer, got 2.5"),
    "kernel-bool-trials": (lambda: _kernel(trials=True), "trials must be an integer, got True"),
    "kernel-negative-seed": (lambda: _kernel(seed=-1), "seed must be >= 0"),
    "kernel-fractional-seed": (lambda: _kernel(seed=1.5), "seed must be an integer, got 1.5"),
    "row-fractional-trials": (lambda: _row(trials=2.5), "trials must be an integer, got 2.5"),
    "row-bool-trials": (lambda: _row(trials=True), "trials must be an integer, got True"),
    "row-negative-seed": (lambda: _row(seed=-1), "seed must be >= 0"),
    "row-bool-seed": (lambda: _row(seed=False), "seed must be an integer, got False"),
    "row-fractional-queue": (lambda: _row(source=(1.5, Phase.OFF, Action.IDLE)),
                             "queue 1.5 is not an integer in 0..10"),
    "row-bool-phase": (lambda: _row(source=(1, True, Action.IDLE)),
                       "phase True is not an integer in 0..1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ESTIMATOR_INPUTS))
def test_estimators_refuse_bad_inputs_before_drawing(case):
    call, message = _BAD_ESTIMATOR_INPUTS[case]
    with time_limit(5.0), pytest.raises(InvalidParameterError, match=message):
        call()


def test_sim_result_rejects_broken_bookkeeping():
    res = run_simulation(SimConfig(params=make_params(), horizon_slots=5000, seed=3))
    c = res.counts
    assert c.served > 0
    broken = [
        (dict(counts=c._replace(dropped=c.dropped + 1)), "admitted = generated - dropped"),
        (dict(counts=c._replace(served=c.admitted + 1)), "served exceeds admitted"),
        (dict(slot_state_histogram=2.0 * res.slot_state_histogram),
         "slot-state histogram must sum to 1"),
        (dict(post_departure_histogram=2.0 * res.post_departure_histogram),
         "post-departure histogram must sum to 1"),
    ]
    for fields, message in broken:
        with pytest.raises(InvalidParameterError, match=message):
            dataclasses.replace(res, **fields)


_OVER_BUDGET = {
    # Switches too fast for any draw to finish: the path and the sampler
    # would never leave their loops.
    "run-1e300": (lambda: run_simulation(SimConfig(
        params=make_params(mu_on=1e300, mu_off=1e300), horizon_slots=1000, seed=1)),
        r"a replication of 1000 slots expects 1e\+303 phase switches"),
    "kernel-1e300": (lambda: estimate_slot_kernel(PnpModel(1e300, 1e300), 1.0, 10, 0),
                     r"one slot expects 1e\+300 phase switches"),
    "row-1e300": (lambda: estimate_transition_row(make_params(mu_on=1e300, mu_off=1e300),
                                                  (2, Phase.OFF, Action.IDLE), 10, 0),
                  r"one slot expects 1e\+300 phase switches"),
    # Finite but slow: a million loop passes, or 2e9 switches drawn.
    "kernel-1e6": (lambda: estimate_slot_kernel(PnpModel(1e6, 1e6), 1.0, 10, 0),
                   r"one slot expects 1e\+06 phase switches"),
    "kernel-many-trials": (lambda: estimate_slot_kernel(PnpModel(1e4, 1e4), 1.0, 200_000, 0),
                           r"200000 one-slot trials expects 2e\+09 phase switches"),
    "run-1e4": (lambda: run_simulation(SimConfig(
        params=make_params(mu_on=1e4, mu_off=1e4), horizon_slots=200_000, seed=1)),
        r"expects 2e\+09 phase switches"),
}


@pytest.mark.parametrize("case", sorted(_OVER_BUDGET))
def test_switches_past_the_budget_raise_before_drawing(case):
    call, message = _OVER_BUDGET[case]
    with time_limit(5.0), pytest.raises(InvalidParameterError, match=message):
        call()


def test_budgets_are_checked_before_the_phase_worker_starts(monkeypatch):
    started = []
    monkeypatch.setattr(simulate, "_phase_path", lambda *args: started.append(args) or iter(()))
    over_budget = [
        (make_params(mu_on=1e4, mu_off=1e4), 200_000, r"expects 2e\+09 phase switches"),
        # 2e6 arrivals a slot: a 1000-slot chunk would hold 2e9 timestamps, 16 GB each array.
        (make_params(lam=1e5), 1000, r"per-slot arrival mean 2e\+06 is too large: "
                                     r"a chunk of 1000 slots expects 2e\+09 arrivals"),
    ]
    for params, horizon, message in over_budget:
        with time_limit(5.0), pytest.raises(InvalidParameterError, match=message):
            run_simulation(SimConfig(params=params, horizon_slots=horizon, seed=1))
    assert started == []


def test_each_replication_joins_its_one_phase_worker(monkeypatch):
    baseline = threading.active_count()
    live = []
    ran_on = []
    path = simulate._phase_path

    def counted(*args):
        for chunk in path(*args):
            live.append(threading.active_count())
            ran_on.append(threading.current_thread())
            yield chunk

    monkeypatch.setattr(simulate, "_phase_path", counted)
    config = SimConfig(params=make_params(), horizon_slots=2 * _CHUNK, seed=3, replications=2)
    with time_limit(20.0):
        run_simulation(config)
    assert threading.active_count() == baseline
    assert len(live) == 4 and max(live) == baseline + 1
    # Both chunks of a replication run on its one worker, and no worker is shared.
    assert len(set(ran_on)) == 2 and ran_on[0] is ran_on[1] and ran_on[2] is ran_on[3]
    assert threading.main_thread() not in ran_on

    # A failure on the drawing side, with the worker busy, joins it too.
    error = RuntimeError("coin draw failed")

    def failing(*args):
        raise error

    monkeypatch.setattr(simulate, "_coins", failing)
    with time_limit(20.0), pytest.raises(RuntimeError) as caught:
        run_simulation(config)
    assert caught.value is error
    assert threading.active_count() == baseline


@pytest.mark.parametrize("good_chunks", [0, 1])
def test_an_error_in_the_phase_worker_reaches_the_caller(monkeypatch, good_chunks):
    baseline = threading.active_count()
    error = ValueError("phase path failed")
    path = simulate._phase_path

    def failing(*args):
        yield from list(path(*args))[:good_chunks]
        raise error

    monkeypatch.setattr(simulate, "_phase_path", failing)
    config = SimConfig(params=make_params(), horizon_slots=2 * _CHUNK, seed=3)
    with time_limit(20.0), pytest.raises(ValueError) as caught:
        run_simulation(config)
    assert caught.value is error
    assert threading.active_count() == baseline


def test_a_slow_phase_worker_leaves_the_tallies_alone(monkeypatch):
    # The reader waits for every chunk, so the hand-off runs in the other order.
    params = make_params(lam=0.01)
    horizon = 3 * _CHUNK + 1
    path = simulate._phase_path

    def slowed(*args):
        time.sleep(0.05)
        for chunk in path(*args):
            yield chunk
            time.sleep(0.05)

    with time_limit(30.0):
        want = [_simulate_one(params, horizon, 1_000, 8, r) for r in range(2)]
        monkeypatch.setattr(simulate, "_phase_path", slowed)
        got = [_simulate_one(params, horizon, 1_000, 8, r) for r in range(2)]
    assert all(np.array_equal(x, y) for g, w in zip(got, want) for x, y in zip(g, w))


def test_transition_row_without_arrivals_stays_put():
    params = make_params(lam=0.0)
    est = estimate_transition_row(params, (2, Phase.OFF, Action.IDLE),
                                  trials=20_000, seed=11)
    for idx, j in enumerate(enumerate_states(params.traffic.capacity_k).queue):
        if j != 2:
            assert est[idx] == 0.0
    assert est.sum() == pytest.approx(1.0, abs=1e-12)


def test_transition_row_collided_serve_never_clears():
    # Serving while the primary is ON can never complete a transmission.
    params = make_params(lam=0.0)
    est = estimate_transition_row(params, (2, Phase.ON, Action.SERVE),
                                  trials=20_000, seed=12)
    for idx, j in enumerate(enumerate_states(params.traffic.capacity_k).queue):
        if j < 2:
            assert est[idx] == 0.0


def test_transition_row_matches_analytic_row():
    params = make_params(lam=0.05)
    tm = build_transition_matrix(params)
    matrix, space = tm.matrix[0], tm.space
    src = space.index(1, int(Phase.OFF), int(Action.SERVE))
    trials = 300_000
    est = estimate_transition_row(params, (1, Phase.OFF, Action.SERVE),
                                  trials=trials, seed=260801)
    for dst in range(space.size):
        p = matrix[src, dst]
        # Count-space bound: 4 sigma plus discreteness slack so cells with
        # expected counts near zero admit a stray hit or two.
        tol_counts = 4.0 * math.sqrt(trials * p * (1.0 - p)) + 5.0
        assert abs(est[dst] - p) * trials <= tol_counts, (
            space.queue[dst], space.phase[dst], space.action[dst])
