import math

import mpmath
import numpy as np
import pytest
import scipy.stats

from criotq import (Action, InvalidParameterError, NoConvergenceError, Phase,
                    StateSpace, StationaryDistribution, activity_factor, arrival_tail,
                    build_transition_matrix, decision_distribution, enumerate_states,
                    evaluate_qos, params_with_activity, slot_kernel,
                    stationary_distribution)
from criotq import chain
from criotq.chain import (SOLVER_METHOD, _check_stochastic, _solve, build_chains,
                          stationary_vectors)
from criotq.slot import arrival_pmf_row
from conftest import make_params


def dense_law(p):
    """Stationary law of a bare square matrix: the check and the dense LU a chain stack gets."""
    _check_stochastic(p[None])
    mu, residual = _solve(p[None], [len(p)])
    return StationaryDistribution(vector=mu[0], residual=float(residual[0]),
                                  method=SOLVER_METHOD)


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


def full_grid_transition_matrix(params, service_success=None):
    """The builder as one broadcast over the full (K+1) x 2 x 3 grid.

    Same factors and roundings as build_transition_matrix, laid out the
    straightforward way: each cell summed from 0 over both branches, the
    tail column read one entry at a time from arrival_tail, the excluded
    states dropped by index.  The builder must match it bit for bit.
    arrival_tail shares the build's tail helper, so the tail column itself
    is checked against an independent running-sum loop in test_slot.py.
    """
    traffic = params.traffic
    k_cap = traffic.capacity_k
    kernel = slot_kernel(params.pnp, traffic.slot_d)
    succ = kernel.off_persist if service_success is None else float(service_success)
    levels = np.arange(k_cap + 1)
    w = np.zeros((2, 3, 2, 2))
    w[Phase.OFF, :, :, 0] = (kernel.a00, kernel.a01)
    w[Phase.ON, :, :, 0] = (kernel.a10, kernel.a11)
    w[Phase.OFF, Action.SERVE, Phase.OFF] = (kernel.a00 - succ, succ)
    w = np.maximum(w, 0.0)
    pmf = np.array(arrival_pmf_row(traffic, k_cap))
    tail = np.array([arrival_tail(traffic, n) for n in range(k_cap + 1)])
    gap = levels[None, :] - levels[:, None]
    q = np.zeros((2, k_cap + 1, k_cap + 1))
    q[0] = np.where(gap >= 0, pmf[np.maximum(gap, 0)], 0.0)
    q[0, :, k_cap] = tail[k_cap - levels]
    q[1, :, :-1] = q[0, :, 1:]
    dec = np.array([[decision_distribution(e, params.sensing, params.policy, empty)
                     for e in (Phase.OFF, Phase.ON)] for empty in (False, True)])
    d = dec[(levels == 0).astype(int)]
    full = np.zeros((k_cap + 1, 2, 3, k_cap + 1, 2, 3))
    for c in (0, 1):
        full += (w[None, :, :, None, :, c, None] * q[c][:, None, None, :, None, None]) * d
    n = full.shape[0] * 6
    keep = np.delete(np.arange(n), (int(Action.SERVE), 3 + int(Action.SERVE)))
    return full.reshape(n, n)[np.ix_(keep, keep)]


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
    for k in (1, 5, 40):
        space = enumerate_states(k)
        for idx, (i, phi, psi) in enumerate(space.states):
            assert space.index(i, phi, psi) == idx
            assert space.states[idx] == (i, phi, psi)
            assert (space.queue[idx], space.phase[idx], space.action[idx]) == (i, phi, psi)
            assert space.cell[idx] == 6 * i + 3 * phi + psi
        # cell is the full (K+1) x 2 x 3 grid order without the two
        # (0, phase, Serve) cells.
        assert np.all(np.diff(space.cell) > 0)
        assert space.cell.size == space.size
        assert set(range(6 * (k + 1))) - set(space.cell.tolist()) == {
            3 * ph + int(Action.SERVE) for ph in (0, 1)}


@pytest.mark.parametrize("k", [1, 2, 20])
def test_state_space_masks_and_level_arrays(k):
    space = enumerate_states(k)
    states = space.states
    assert space.serving.tolist() == [ph == Phase.OFF and a == Action.SERVE
                                      for _, ph, a in states]
    # One serving state per level 1..K, in level order.
    assert space.queue[space.serving].tolist() == list(range(1, k + 1))
    levels = range(k + 1)
    assert space.lag.tolist() == [[max(j - i, 0) for j in levels] for i in levels]
    assert space.ahead.tolist() == [[j >= i for j in levels] for i in levels]
    assert space.room.tolist() == [k - i for i in levels]
    assert space.empty.tolist() == [int(i == 0) for i in levels]
    for name in ("cell", "queue", "phase", "action", "serving", "lag", "ahead", "room", "empty"):
        array = getattr(space, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = array[0]


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
    # Fractional and boolean queues are not levels, even where they equal one.
    for queue in (1.5, 1.0, np.float64(2.0), True):
        with pytest.raises(InvalidParameterError, match="is not an integer in 0..3"):
            space.index(queue, 0, 0)
    assert space.index(np.int64(2), 0, 0) == space.index(2, 0, 0)
    # The phase and the action follow the queue's rule: a bool or a float
    # that equals a valid coordinate is refused, a numpy integer is not.
    for bad in (True, 1.0, np.float64(1.0)):
        with pytest.raises(InvalidParameterError, match=r"phase .* is not an integer in 0\.\.1"):
            space.index(1, bad, 0)
        with pytest.raises(InvalidParameterError, match=r"action .* is not an integer in 0\.\.2"):
            space.index(1, 0, bad)
    assert space.index(1, np.int64(1), np.int64(2)) == space.index(1, Phase.ON, Action.CHARGE)
    with pytest.raises(InvalidParameterError):
        enumerate_states(0)


def test_enumerate_states_validates_before_its_cache():
    space = enumerate_states(10)
    assert enumerate_states(10) is space
    # True == 1 and hash(True) == hash(1), so True must raise before the
    # cache could hand it the space of K = 1.
    for bad in (10.0, 0, -1, "10", None, True, np.int64(10)):
        with pytest.raises(InvalidParameterError):
            enumerate_states(bad)
    assert type(enumerate_states(1).capacity_k) is int


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
            mu2 = dense_law(want)
            assert np.max(np.abs(mu.vector - mu2.vector)) <= 1e-9
            # Success mass a00 leaves the interrupted OFF branch with weight 0.
            a00 = slot_kernel(params.pnp, params.traffic.slot_d).a00
            _, want_sync = literal_transition_matrix(params, service_success=a00)
            sync = build_transition_matrix(params, synchronized=True)
            assert np.max(np.abs(sync.matrix - want_sync)) <= 1e-12


def test_builder_matches_full_grid_broadcast_bit_for_bit():
    rng = np.random.default_rng(62013)
    corners = [dict(lam=0.0), dict(lam=5.0), dict(lam=-0.0, xi=-0.0, theta=-0.0),
               dict(p_detect=1.0, p_false_alarm=0.0, theta=0.0, xi=1.0),
               dict(p_detect=0.0, p_false_alarm=1.0, theta=1.0, xi=0.0)]
    cells = [make_params(capacity_k=cap, **kw) for cap in (1, 7) for kw in corners]
    for _ in range(30):
        cells.append(make_params(
            mu_on=float(rng.uniform(0.05, 3.0)), mu_off=float(rng.uniform(0.05, 3.0)),
            n=int(rng.integers(1, 30)), lam=float(10 ** rng.uniform(-4, 0)),
            capacity_k=int(rng.integers(1, 41)), slot_d=float(rng.uniform(0.05, 4.0)),
            p_detect=float(rng.choice([0.0, 1.0, rng.uniform()])),
            p_false_alarm=float(rng.choice([0.0, 1.0, rng.uniform()])),
            theta=float(rng.choice([0.0, 1.0, rng.uniform()])),
            xi=float(rng.choice([0.0, 1.0, rng.uniform()]))))
    for params in cells:
        a00 = slot_kernel(params.pnp, params.traffic.slot_d).a00
        for synchronized, succ in ((False, None), (True, a00)):
            got = build_transition_matrix(params, synchronized=synchronized).matrix
            want = full_grid_transition_matrix(params, service_success=succ)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _random_cells(rng, count):
    """Seeded (params, synchronized) pairs over K 1-40, lam from 0 to
    saturated, sensing and policy corners at 0 and 1, and both the
    default and the synchronized (a00) service success.

    A cell that never completes a service (it never serves in an OFF
    slot) keeps every queue level closed at lam = 0, so its stationary
    law there is not unique and the balance equations can be singular.
    At light load such cells solve, but the lumped LU can spread about
    2e-13 of spurious mass over every transient state: drawn down to
    lam = 0, two of the 320 cells here differ from the dense solve by
    1.2e-12 and 1.9e-12.  Until the lumped solve is exact there, such
    cells draw a load that fills the buffer.
    """
    def pick():
        return float(rng.choice([0.0, 1.0, rng.uniform()]))

    cells = []
    while len(cells) < count:
        kw = dict(mu_on=float(rng.uniform(0.05, 3.0)), mu_off=float(rng.uniform(0.05, 3.0)),
                  n=int(rng.integers(1, 30)), capacity_k=int(rng.integers(1, 41)),
                  slot_d=float(rng.uniform(0.05, 4.0)), p_detect=pick(),
                  p_false_alarm=pick(), theta=pick(), xi=pick(),
                  lam=float(rng.choice([0.0, 5.0, 10 ** rng.uniform(-5, 0)])))
        synchronized = bool(rng.integers(2))
        serves_off = (1.0 - kw["p_false_alarm"]) * (1.0 - kw["theta"]) * (1.0 - kw["xi"])
        if serves_off == 0.0 and kw["lam"] < 0.01:
            kw["lam"] = float(rng.uniform(0.01, 1.0))
        cells.append((make_params(**kw), synchronized))
    return cells


def _action_marginal(tm):
    """sum_a d[i, ph, a] sum_b P[(i, ph, a), (j, e, b)] from the dense matrix."""
    space = tm.space
    pair = 2 * space.queue + space.phase
    onto_pairs = np.zeros((space.size, 2 * (space.capacity_k + 1)))
    onto_pairs[np.arange(space.size), pair] = 1.0
    d = tm.decision[(space.queue == 0).astype(int), space.phase, space.action]
    return onto_pairs.T @ (d[:, None] * (tm.matrix @ onto_pairs))


def test_lumped_chain_is_the_action_marginal_of_the_full_chain():
    rng = np.random.default_rng(70411)
    for params, synchronized in _random_cells(rng, 320):
        tm = build_transition_matrix(params, synchronized=synchronized)
        assert np.max(np.abs(tm.lumped - _action_marginal(tm))) <= 1e-15
        mu = stationary_distribution(tm)
        dense = dense_law(tm.matrix)
        assert np.max(np.abs(mu.vector - dense.vector)) <= 1e-12
        # pi P - pi = d (nu Q - nu) entrywise, so the lumped residual bounds
        # the full one.  The full residual is formed in extended precision:
        # in doubles its own rounding reaches an ulp of the largest mass.
        pi, p = mu.vector.astype(np.longdouble), tm.matrix.astype(np.longdouble)
        assert np.max(np.abs(pi @ p - pi)) <= mu.residual + 1e-16


@pytest.mark.parametrize("lam", [3.2e-5, 1.6e-4, 2.3e-4])
def test_certain_false_alarm_solves_directly(lam):
    # Light-load cells where the false alarm always fires: the direct
    # solve is accepted at each, within the 1e-10 residual bound.
    report = evaluate_qos(make_params(p_false_alarm=1.0, lam=lam))
    assert report.solver_method == "direct"
    assert report.residual <= 1e-10


def test_never_serving_light_load_solves_directly():
    # Every level is all but closed: the queue only fills.  The LU answer
    # dips to -6e-14 at transient levels; clipped, its residual is 0.
    params = make_params(mu_on=1.888, mu_off=1.520, n=11, lam=1.53e-5, capacity_k=34,
                         slot_d=0.254, p_detect=0.0, p_false_alarm=0.924, theta=1.0, xi=0.0)
    tm = build_transition_matrix(params)
    mu = stationary_distribution(tm)
    assert mu.method == "direct"
    assert mu.residual <= 1e-10
    assert mu.vector[tm.space.queue == 34].sum() >= 1 - 1e-12


def test_clipped_direct_answer_matches_oracle():
    # A busy channel (beta = 0.94) keeps the queue near full.  The float
    # rows sum to 1 +- 2e-16, and the exact solution of that float matrix
    # already has entries down to -1.1e-14 at the low levels, as has the
    # LU answer.  Clipped, the answer matches the chain with exactly
    # stochastic rows.
    params = make_params(mu_off=14.499790752824799, lam=0.0006307437909989518,
                         capacity_k=15, p_detect=0.872838555547448,
                         p_false_alarm=0.05676968418010617, theta=0.2994111097451574,
                         xi=0.6560209460814055)
    tm = build_transition_matrix(params)
    mu = stationary_distribution(tm)
    want = np.array([float(x) for x in _oracle_stationary(tm.lumped, exact_rows=True)])
    nu = np.bincount(2 * tm.space.queue + tm.space.phase, weights=mu.vector)
    assert np.max(np.abs(nu - want)) <= 1e-13


def _oracle_stationary(matrix, digits=50, exact_rows=False):
    """Stationary vector of the dense matrix by a 50-digit LU solve.

    With exact_rows, each row is first divided by its exact sum, so the
    oracle solves a chain whose rows sum to 1 exactly rather than to
    1 +- an ulp as the float rows do.
    """
    with mpmath.workdps(digits):
        n = matrix.shape[0]
        scale = [mpmath.fsum(mpmath.mpf(float(x)) for x in row) if exact_rows else 1
                 for row in matrix]
        a = mpmath.matrix(n, n)
        for r in range(1, n):
            for c in range(n):
                a[r, c] = mpmath.mpf(float(matrix[c, r])) / scale[c] - (1 if r == c else 0)
        for c in range(n):
            a[0, c] = 1  # normalization in place of one balance equation
        b = mpmath.matrix(n, 1)
        b[0] = 1
        return list(mpmath.lu_solve(a, b))


@pytest.mark.parametrize("kw", [
    dict(capacity_k=2, lam=0.02),
    dict(capacity_k=3, lam=0.004, mu_on=0.4, mu_off=1.7, p_detect=0.8, xi=0.3),
    dict(capacity_k=4, lam=1e-4, slot_d=0.5, theta=0.05),  # masses from 2e-10 to 0.47
])
def test_lumped_solve_matches_high_precision_oracle(kw):
    params = make_params(**kw)
    tm = build_transition_matrix(params)
    mu = stationary_distribution(tm)
    want = _oracle_stationary(tm.matrix)
    with mpmath.workdps(50):
        for got, exact in zip(mu.vector, want):
            assert exact > 0
            assert abs((mpmath.mpf(float(got)) - exact) / exact) <= 1e-13
        serving = np.flatnonzero((tm.space.phase == Phase.OFF)
                                 & (tm.space.action == Action.SERVE))
        rho = params.traffic.mean_arrivals_per_slot
        p_b = 1 - mpmath.mpf(tm.service_success) * mpmath.fsum(
            want[s] for s in serving) / mpmath.mpf(rho)
        assert abs(evaluate_qos(params).drop_prob - p_b) <= 4e-15


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
    tm = build_transition_matrix(params, synchronized=True)
    assert tm.service_success == kernel.a00
    src = tm.space.index(cap, 0, int(Action.SERVE))
    dst = tm.space.index(cap, 0, int(Action.IDLE))
    assert tm.matrix[src, dst] == 0.0
    full = build_transition_matrix(params)
    assert full.service_success == kernel.off_persist
    assert full.matrix[src, dst] > 0.0


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
    mu = dense_law(swap)
    assert mu.vector == pytest.approx([0.5, 0.5], abs=1e-12)
    assert mu.residual <= 1e-10


def test_stationary_identity_has_no_unique_law():
    # Every vector is stationary; the balance equations are singular.
    with pytest.raises(NoConvergenceError) as err:
        dense_law(np.eye(2))
    assert err.value.residual == math.inf


def test_stationary_biased_coin():
    p = np.array([[0.9, 0.1], [0.3, 0.7]])
    mu = dense_law(p)
    assert mu.vector == pytest.approx([0.75, 0.25], abs=1e-12)


def test_stationary_rejects_bad_matrix():
    with pytest.raises(InvalidParameterError, match="rows must sum"):
        dense_law(np.array([[0.5, 0.4], [0.5, 0.5]]))
    # Entries are checked before row sums: these rows sum to 1.
    with pytest.raises(InvalidParameterError, match="outside"):
        dense_law(np.array([[-0.5, 1.5], [0.5, 0.5]]))


@pytest.mark.parametrize("bad_row", [
    [0.5, 0.5, math.nan],       # a NaN entry in an otherwise stochastic row
    [math.nan, math.nan, 1.0],  # a NaN row sum
    [0.5, 0.5 + 2e-10, 0.0],    # a row off by 2e-10
    [0.5, 0.5 - 2e-10, 0.0],
])
def test_stationary_rejects_nan_and_off_rows(bad_row):
    p = np.array([[0.2, 0.3, 0.5], bad_row, [1.0, 0.0, 0.0]])
    with pytest.raises(InvalidParameterError, match="rows must sum"):
        dense_law(p)
    p[1] = [0.5, 0.5 + 5e-11, 0.0]  # within the 1e-10 row-sum tolerance
    assert dense_law(p).residual <= 1e-10


def test_stacked_solve_gives_lone_bits_and_a_singular_stack_raises():
    coin = np.array([[0.9, 0.1], [0.3, 0.7]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu, residual = _solve(np.stack([coin, swap]), [2, 2])
    for row, res, p in zip(mu, residual, (coin, swap)):
        alone = dense_law(p)
        assert row.tobytes() == alone.vector.tobytes() and res == alone.residual
    # The identity has no unique law: the whole stack raises as the
    # identity does alone, whatever ordinary members surround it.
    with pytest.raises(NoConvergenceError) as err:
        _solve(np.stack([coin, swap, np.eye(2), coin]), [2, 2, 2, 2])
    assert err.value.residual == math.inf


def test_build_chains_rejects_an_empty_or_mixed_capacity_stack():
    with pytest.raises(InvalidParameterError, match="at least one point"):
        build_chains([])
    with pytest.raises(InvalidParameterError, match="must share capacity_k"):
        build_chains([make_params(capacity_k=10), make_params(capacity_k=11)])


def test_stack_past_the_residual_bound_raises_with_its_first_such_residual(monkeypatch):
    chains = build_chains([make_params(lam=lam, capacity_k=40) for lam in (5e-4, 1e-3, 2e-3)])
    _, residual = stationary_vectors(chains)
    # A bound at the smallest residual passes its member and rejects the
    # rest; the error names the first rejected member in stack order.
    bound = float(residual.min())
    past = [float(r) for r in residual if r > bound]
    assert past, "the members' residuals must differ"
    monkeypatch.setattr(chain, "_RESIDUAL_BOUND", bound)
    with pytest.raises(NoConvergenceError, match=f"direct solve residual {past[0]:.3e}") as err:
        stationary_vectors(chains)
    assert err.value.residual == past[0]


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


@pytest.mark.parametrize("params", [
    make_params(lam=0.0),
    # Serving at beta = 0.95: the departure mass exp(-mu_off slot_d) is 6e-41,
    # and the full balance equations are singular in floats.
    params_with_activity(make_params(
        mu_on=2.7902729921340557, n=5, lam=0.0, capacity_k=5, slot_d=1.7209583776135122,
        p_detect=0.7074426813052044, p_false_alarm=0.00929629305419124,
        theta=0.033113108523295354, xi=0.7286993197817435), 0.95),
    # Never serving: every level is closed, and the full LU is singular.
    make_params(mu_on=2.4, mu_off=1.6, capacity_k=4, slot_d=0.8, lam=0.0, theta=1.0),
], ids=["default", "serving-beta-0.95", "never-serving"])
def test_stationary_no_arrivals_keeps_queue_empty(params):
    tm = build_transition_matrix(params)
    mu = stationary_distribution(tm)
    assert mu.method == "direct"
    assert mu.residual <= 1e-10
    assert mu.vector[tm.space.queue >= 1].sum() == 0.0
    assert mu.vector.sum() == pytest.approx(1.0, abs=1e-15)


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


def test_stationary_vector_indexed_through_space(baseline_params):
    tm = build_transition_matrix(baseline_params)
    mu = stationary_distribution(tm)
    total = 0.0
    for i, phi, psi in tm.space.states:
        total += mu.vector[tm.space.index(i, phi, psi)]
    assert total == pytest.approx(1.0, abs=1e-12)


def test_state_space_size_formula():
    for cap in range(1, 12):
        assert enumerate_states(cap).size == 6 * cap + 4
        assert isinstance(enumerate_states(cap), StateSpace)
