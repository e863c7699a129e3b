import math

import numpy as np
import pytest
import scipy.stats

from criotq import (Action, InvalidParameterError, NoConvergenceError, Phase,
                    StateSpace, activity_factor, build_transition_matrix,
                    enumerate_states, slot_kernel, stationary_distribution)
from conftest import make_params


def literal_transition_matrix(params, service_success=None):
    """Second, deliberately naive route to the one-slot matrix.

    Every cell is written out as weight * arrival mass * next-decision
    probability with no shared code paths, so agreement with the vectorized
    builder checks the factorization rather than restating it.
    service_success overrides the whole-slot OFF persistence as the
    serving-slot success probability, as the builder's argument does.
    """
    pnp, tr, sen, pol = params.pnp, params.traffic, params.sensing, params.policy
    cap = tr.capacity_k
    sigma = pnp.mu_on + pnp.mu_off
    growth = -math.expm1(-sigma * tr.slot_d)
    a01 = pnp.mu_off * growth / sigma
    a10 = pnp.mu_on * growth / sigma
    alpha = ((1.0 - a01, a01), (a10, 1.0 - a10))
    f_off = math.exp(-pnp.mu_off * tr.slot_d) if service_success is None else service_success
    mean = tr.n * tr.lam * tr.slot_d

    def pois(k):
        return float(scipy.stats.poisson.pmf(k, mean))

    def pois_tail(k_min):
        if k_min <= 0:
            return 1.0
        return float(scipy.stats.poisson.sf(k_min - 1, mean))

    def decide(phase2, queue2, action2):
        free = (1.0 - sen.p_false_alarm) if phase2 == 0 else (1.0 - sen.p_detect)
        charge = free * (1.0 - pol.theta_idle) * pol.xi_charge
        serve = free * (1.0 - pol.theta_idle) * (1.0 - pol.xi_charge)
        if queue2 == 0:
            serve = 0.0
        idle = 1.0 - charge - serve
        return (idle, serve, charge)[action2]

    space = enumerate_states(cap)
    mat = np.zeros((space.size, space.size))
    for src, (i, phi, psi) in enumerate(space.states):
        serving = i >= 1 and phi == 0 and psi == 1
        if serving:
            branches = [(f_off, 0, 1), (alpha[0][0] - f_off, 0, 0), (alpha[0][1], 1, 0)]
        else:
            branches = [(alpha[phi][0], 0, 0), (alpha[phi][1], 1, 0)]
        for weight, phi2, cleared in branches:
            lo, hi = i - cleared, cap - cleared
            for j in range(lo, hi + 1):
                if j == hi:
                    mass = pois_tail(hi - lo)
                else:
                    mass = pois(j - lo)
                for act in (0, 1, 2):
                    if j == 0 and act == 1:
                        continue  # serving an empty queue is excluded
                    dst = space.index(j, phi2, act)
                    mat[src, dst] += weight * mass * decide(phi2, j, act)
    return space, mat


def test_enumerate_sizes_and_order():
    small = enumerate_states(1)
    assert small.size == 10
    big = enumerate_states(10)
    assert big.size == 64
    # Empty-queue block first: serving is impossible with nothing queued.
    assert big.states[:4] == ((0, 0, 0), (0, 0, 2), (0, 1, 0), (0, 1, 2))
    assert big.states[4] == (1, 0, 0)
    for st in big.states:
        assert not (st[0] == 0 and st[2] == int(Action.SERVE))


def test_index_round_trip():
    space = enumerate_states(5)
    for idx, (i, phi, psi) in enumerate(space.states):
        assert space.index(i, phi, psi) == idx
        assert space.state(idx) == (i, phi, psi)
        assert (space.queue[idx], space.phase[idx], space.action[idx]) == (i, phi, psi)


def test_index_rejects_invalid_states():
    space = enumerate_states(3)
    with pytest.raises(InvalidParameterError):
        space.index(0, 0, int(Action.SERVE))
    with pytest.raises(InvalidParameterError):
        space.index(4, 0, 0)
    with pytest.raises(InvalidParameterError):
        space.index(-1, 0, 0)
    with pytest.raises(InvalidParameterError):
        space.index(1, 2, 0)
    with pytest.raises(InvalidParameterError):
        space.index(1, 0, 3)
    with pytest.raises(InvalidParameterError):
        enumerate_states(0)


def test_builder_agrees_with_literal_construction():
    rng = np.random.default_rng(41507)
    for cap in (1, 2, 3, 12):
        for _ in range(5):
            n = int(rng.integers(1, 30))
            params = make_params(
                mu_on=float(rng.uniform(0.05, 3.0)),
                mu_off=float(rng.uniform(0.05, 3.0)),
                n=n, lam=float(rng.uniform(0.0, 0.3)),
                capacity_k=cap, slot_d=float(rng.uniform(0.1, 4.0)),
                p_detect=float(rng.uniform(0.0, 1.0)),
                p_false_alarm=float(rng.uniform(0.0, 1.0)),
                theta=float(rng.uniform(0.0, 1.0)),
                xi=float(rng.uniform(0.0, 1.0)))
            space, want = literal_transition_matrix(params)
            tm = build_transition_matrix(params)
            assert tm.space.states == space.states
            assert np.max(np.abs(tm.matrix - want)) <= 1e-12
            mu = stationary_distribution(tm)
            mu2 = stationary_distribution(want)
            assert np.max(np.abs(mu.vector - mu2.vector)) <= 1e-9
            # Success mass a00 leaves the interrupted OFF branch with weight 0.
            a00 = slot_kernel(params.pnp, params.traffic.slot_d).a00
            _, want_sync = literal_transition_matrix(params, service_success=a00)
            sync = build_transition_matrix(params, service_success=a00)
            assert np.max(np.abs(sync.matrix - want_sync)) <= 1e-12


def test_frozen_entry_serve_success_then_charge(baseline_params):
    # Serving at queue 1, OFF holds the whole slot, no arrivals, next
    # decision charges: exp(-1) * exp(-0.02) * 0.9 * 0.8 * 0.5.
    tm = build_transition_matrix(baseline_params)
    src = tm.space.index(1, int(Phase.OFF), int(Action.SERVE))
    dst = tm.space.index(0, int(Phase.OFF), int(Action.CHARGE))
    want = math.exp(-1.0) * math.exp(-0.02) * 0.36
    assert want == pytest.approx(0.1298141784623082, abs=1e-15)
    assert tm.matrix[src, dst] == pytest.approx(want, abs=1e-14)


def test_rows_stochastic_across_parameter_sweep():
    rng = np.random.default_rng(88331)
    for cap in (1, 2, 5, 10, 25):
        for _ in range(8):
            params = make_params(
                mu_on=float(rng.uniform(0.05, 5.0)),
                mu_off=float(rng.uniform(0.05, 5.0)),
                lam=float(rng.uniform(0.0, 0.5)),
                capacity_k=cap, slot_d=float(rng.uniform(0.05, 3.0)),
                p_detect=float(rng.uniform(0.0, 1.0)),
                p_false_alarm=float(rng.uniform(0.0, 1.0)),
                theta=float(rng.uniform(0.0, 1.0)),
                xi=float(rng.uniform(0.0, 1.0)))
            tm = build_transition_matrix(params)
            sums = tm.matrix.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-10
            assert tm.matrix.min() >= 0.0


def test_queue_never_drops_by_more_than_one():
    tm = build_transition_matrix(make_params(lam=0.05, capacity_k=6))
    for src, (i, _, _) in enumerate(tm.space.states):
        for dst, (j, _, _) in enumerate(tm.space.states):
            if j < i - 1:
                assert tm.matrix[src, dst] == 0.0


def test_service_success_override():
    params = make_params()
    kernel = slot_kernel(params.pnp, params.traffic.slot_d)
    cap = params.traffic.capacity_k
    # With success mass equal to the whole OFF->OFF weight there is no
    # interrupted branch, so a serving full buffer can never stay full.
    tm = build_transition_matrix(params, service_success=kernel.a00)
    src = tm.space.index(cap, 0, int(Action.SERVE))
    dst = tm.space.index(cap, 0, int(Action.IDLE))
    assert tm.matrix[src, dst] == 0.0
    full = build_transition_matrix(params)
    assert full.matrix[src, dst] > 0.0
    # With zero success a serving queue cannot shrink.
    tm0 = build_transition_matrix(params, service_success=0.0)
    down = tm0.space.index(0, 0, int(Action.CHARGE))
    assert tm0.matrix[tm0.space.index(1, 0, int(Action.SERVE)), down] == 0.0
    with pytest.raises(InvalidParameterError):
        build_transition_matrix(params, service_success=kernel.a00 + 1e-6)


def test_capacity_one_serving_row_is_stochastic():
    # Smallest buffer: the success branch collapses to a single tail column.
    params = make_params(capacity_k=1, lam=0.2)
    tm = build_transition_matrix(params)
    space, want = literal_transition_matrix(params)
    assert np.max(np.abs(tm.matrix - want)) <= 1e-12
    src = tm.space.index(1, 0, int(Action.SERVE))
    assert tm.matrix[src].sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_two_state_swap():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = stationary_distribution(swap)
    assert mu.vector == pytest.approx([0.5, 0.5], abs=1e-12)
    assert mu.residual <= 1e-10


def test_stationary_identity_falls_back_to_power():
    mu = stationary_distribution(np.eye(2))
    assert mu.vector.sum() == pytest.approx(1.0, abs=1e-12)
    assert mu.method == "power"
    assert mu.residual <= 1e-10


def test_stationary_biased_coin():
    p = np.array([[0.9, 0.1], [0.3, 0.7]])
    mu = stationary_distribution(p)
    assert mu.vector == pytest.approx([0.75, 0.25], abs=1e-12)


def test_stationary_rejects_bad_matrix():
    with pytest.raises(InvalidParameterError):
        stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(InvalidParameterError):
        stationary_distribution(np.array([[0.5, 0.5]]))


def test_no_convergence_error_carries_residual():
    err = NoConvergenceError("stalled", residual=3.5e-7)
    assert err.residual == 3.5e-7
    assert isinstance(err, RuntimeError)


def test_stationary_phase_marginal_is_activity_factor(baseline_params):
    tm = build_transition_matrix(baseline_params)
    mu = stationary_distribution(tm)
    on_mass = sum(mu.vector[idx] for idx, (_, phi, _) in enumerate(tm.space.states)
                  if phi == int(Phase.ON))
    assert on_mass == pytest.approx(0.5, abs=1e-8)

    tilted = make_params(mu_on=0.7, mu_off=0.3)
    tm2 = build_transition_matrix(tilted)
    mu2 = stationary_distribution(tm2)
    on2 = sum(mu2.vector[idx] for idx, (_, phi, _) in enumerate(tm2.space.states)
              if phi == int(Phase.ON))
    assert on2 == pytest.approx(activity_factor(tilted.pnp), abs=1e-8)


def test_stationary_no_arrivals_drains_queue():
    tm = build_transition_matrix(make_params(lam=0.0))
    mu = stationary_distribution(tm)
    queued = sum(mu.vector[idx] for idx, (i, _, _) in enumerate(tm.space.states)
                 if i >= 1)
    assert queued <= 1e-10


def test_stationary_always_idle_policy_solves():
    tm = build_transition_matrix(make_params(theta=1.0, lam=0.05))
    mu = stationary_distribution(tm)
    idle_mass = sum(mu.vector[idx] for idx, (_, _, psi) in enumerate(tm.space.states)
                    if psi == int(Action.IDLE))
    assert idle_mass == pytest.approx(1.0, abs=1e-10)
    assert mu.residual <= 1e-10


def test_stationary_certain_false_alarm_solves():
    tm = build_transition_matrix(make_params(p_false_alarm=1.0, lam=0.05))
    mu = stationary_distribution(tm)
    assert mu.residual <= 1e-10
    served = sum(mu.vector[idx] for idx, (_, phi, psi) in enumerate(tm.space.states)
                 if phi == int(Phase.OFF) and psi == int(Action.SERVE))
    assert served <= 1e-12


def test_stationary_distribution_prob_accessor(baseline_params):
    tm = build_transition_matrix(baseline_params)
    mu = stationary_distribution(tm)
    total = 0.0
    for i, phi, psi in tm.space.states:
        total += mu.prob(i, phi, psi)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_state_space_size_formula():
    for cap in range(1, 12):
        assert enumerate_states(cap).size == 6 * cap + 4
        assert isinstance(enumerate_states(cap), StateSpace)
