"""Slot-to-slot Markov chain over (queue length, phase, committed action).

The chain state is the triple observed right after the sensing decision
at a slot boundary: queue content i in 0..K (counting the in-service
packet), true primary phase, and the action the AP committed for the
coming slot.  Serving an empty queue is impossible, so the two states
(0, phase, Serve) are excluded and the space has 6K + 4 states.

A one-slot transition is a product of three independent laws:

* a phase branch w[ph, a, e, c]: the boundary phase e the slot ends in,
  and c = 1 when a serving OFF slot was covered by one OFF period (the
  service succeeds only then),
* the arrival shift q_c[i, j]: the Poisson count, truncated by the free
  buffer space, that takes queue i to j after c departures,
* the next decision draw d[j, e, b], conditioned on the end phase and
  on whether the resulting queue is empty.

so P[(i, ph, a), (j, e, b)] = sum_c (w[ph, a, e, c] q_c[i, j]) d[j, e, b].

The next action b is drawn fresh, and its law d depends on the target
(j, e) alone, not on the source state.  The action coordinate is
therefore exactly lumpable (Kemeny and Snell, Finite Markov Chains,
1960, section 6.3): every stationary vector has the form

    pi(j, e, b) = nu(j, e) d[j, e, b],

where nu is stationary for the 2(K+1)-state (queue, phase) chain

    Q[(i, ph), (j, e)] = sum_c W_c[i, ph, e] q_c[i, j],
    W_c[i, ph, e] = sum_a d[i, ph, a] w[ph, a, e, c],

the action marginal sum_a d sum_b P of the full chain.  Summing the full
balance equations over b gives nu Q = nu, and pi P = pi follows back
from it, because pi P - pi = d (nu Q - nu) entrywise.

``build_transition_matrix`` forms Q from the three factors and keeps
them, so the dense (6K + 4)^2 matrix P is assembled only when something
reads ``TransitionMatrix.matrix``: array products over whole
(K+1) x (K+1) queue blocks, one per (ph, a, e, b), gathered into state
order through ``StateSpace.cell``, which drops the two excluded states.
Every entry of P has the bits of the formula above evaluated cell by
cell; the tests keep a broadcast over the full grid as the reference.
The state space of each K is built once and shared.

``stationary_distribution`` solves nu = nu Q with one direct dense
solve and gathers nu d into state order through the same ``cell``;
the two excluded states carry exactly zero mass there and are dropped.
The residual it reports is ||nu Q - nu||_inf, which bounds
||pi P - pi||_inf by the identity above, since every entry of d lies in
[0, 1].  A solve whose residual exceeds 1e-10 raises rather than
iterating.  The one degenerate case with a fixed answer, a chain that
admits no arrival, is solved on the closed empty level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, NoConvergenceError
from .params import SystemParams
from .slot import (Action, Phase, SlotTransitionKernel, arrival_pmf,
                   decision_distribution, slot_kernel)

State = tuple[int, Phase, Action]

_PHASES = (Phase.OFF, Phase.ON)
_ALL_ACTIONS = (Action.IDLE, Action.SERVE, Action.CHARGE)
#: Flat positions of (0, OFF, Serve) and (0, ON, Serve) in the full
#: (K+1) x 2 x 3 grid, ordered queue-major, then phase, then action.
_EXCLUDED = (int(Action.SERVE), 3 + int(Action.SERVE))


@dataclass(frozen=True)
class StateSpace:
    """Canonical enumeration of the 6K + 4 valid (queue, phase, action) triples.

    Ordering: the four i = 0 states first, grouped by phase then action
    [(0,OFF,Idle), (0,OFF,Charge), (0,ON,Idle), (0,ON,Charge)], then for
    each i >= 1 a block of six states, phase-major and action-minor.
    This is the full grid order with the two (0, phase, Serve) states
    removed, and ``cell`` says so once: state s sits at flat position
    cell[s] = 6 queue + 3 phase + action of the (K+1) x 2 x 3 grid, and
    cell is increasing.  Grid-shaped arrays are put into state order by
    gathering through it.  ``queue``, ``phase`` and ``action`` hold the
    same triples as read-only integer arrays, so metrics can mask and
    reduce over states without touching ``states`` or ``index``.
    """

    capacity_k: int
    states: tuple[State, ...]
    cell: np.ndarray = field(compare=False, repr=False)
    queue: np.ndarray = field(compare=False, repr=False)
    phase: np.ndarray = field(compare=False, repr=False)
    action: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return 6 * self.capacity_k + 4

    def index(self, queue: int, phase: Phase, action: Action) -> int:
        """Position of a state triple; raises for invalid triples."""
        k = self.capacity_k
        if not (0 <= queue <= k):
            raise InvalidParameterError(f"queue {queue} outside 0..{k}")
        if phase not in _PHASES or action not in _ALL_ACTIONS:
            raise InvalidParameterError(f"invalid phase/action ({phase}, {action})")
        if queue == 0 and action == Action.SERVE:
            raise InvalidParameterError("state (0, phase, Serve) is excluded")
        return int(np.searchsorted(self.cell, 6 * queue + 3 * int(phase) + int(action)))

    def state(self, idx: int) -> State:
        return self.states[idx]


def enumerate_states(capacity_k: int) -> StateSpace:
    """The state space for buffer capacity K, built once per K and shared.

    The argument is validated before the cache lookup and the cache is
    typed, so 10.0 still raises and True gets its own entry rather than
    the space of an equal int.
    """
    if not isinstance(capacity_k, int) or capacity_k < 1:
        raise InvalidParameterError("capacity_k must be an integer >= 1")
    return _state_space(capacity_k)


@functools.lru_cache(maxsize=64, typed=True)
def _state_space(capacity_k: int) -> StateSpace:
    cell = np.delete(np.arange(6 * (capacity_k + 1)), _EXCLUDED)
    grid = np.indices((capacity_k + 1, 2, 3)).reshape(3, -1)[:, cell]
    cell.setflags(write=False)
    grid.setflags(write=False)
    queue, phase, action = grid
    states = tuple((i, _PHASES[ph], _ALL_ACTIONS[a])
                   for i, ph, a in zip(*grid.tolist()))
    return StateSpace(capacity_k=capacity_k, states=states, cell=cell,
                      queue=queue, phase=phase, action=action)


def _check_stochastic(p: np.ndarray) -> None:
    """Raise unless p is square, with entries in [0, 1] and rows summing to 1."""
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
        raise InvalidParameterError("matrix must be square and nonempty")
    if p.min() < -1e-12 or p.max() > 1.0 + 1e-12:
        raise InvalidParameterError("matrix entries outside [0, 1]")
    # Written so that a NaN entry, and with it a NaN row sum, fails too.
    if not np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-10):
        raise InvalidParameterError("matrix rows must sum to 1 within 1e-10")


@dataclass(frozen=True)
class TransitionMatrix:
    """The one-slot chain, held as its lumped (queue, phase) form and its factors.

    Attributes:
        lumped: the row-stochastic 2(K+1) x 2(K+1) matrix Q over
            (queue, phase) pairs, queue-major then phase, that the
            stationary solve works on.
        decision: the decision law d[empty, e, b] of action b given the
            end phase e and whether the queue is empty (0 = not empty).
        space: the (queue, phase, action) state space of the full chain.
        kernel: the slot phase kernel the branches come from.
        service_success: the success probability of a serving OFF slot.
        branches: the phase branch weights w[ph, a, e, c].
        shifts: the arrival shifts q[c, i, j].

    ``matrix`` is the dense (6K + 4) x (6K + 4) matrix over
    (queue, phase, action) triples, assembled and validated on first
    access and then kept.
    """

    lumped: np.ndarray
    decision: np.ndarray
    space: StateSpace
    kernel: SlotTransitionKernel
    service_success: float
    branches: np.ndarray = field(repr=False)
    shifts: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_stochastic(self.lumped)
        if self.lumped.shape[0] != 2 * (self.space.capacity_k + 1):
            raise InvalidParameterError("lumped matrix shape does not match the state space")

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        w, q = self.branches, self.shifts
        levels = np.arange(self.space.capacity_k + 1)
        d = self.decision[(levels == 0).astype(int)].transpose(1, 2, 0)

        # t[ph, a, e, b, i, j]: each product is formed as (w q) d, the same
        # two roundings as weight * mass * decision, with the queue axes
        # innermost.  Only a serving OFF slot that ends OFF has a departure
        # branch; every other c = 1 weight is 0 and adds nothing.
        t = (w[:, :, :, 0, None, None, None] * q[0]) * d[:, :, None, :]
        t[Phase.OFF, Action.SERVE, Phase.OFF] += (
            (w[Phase.OFF, Action.SERVE, Phase.OFF, 1] * q[1]) * d[Phase.OFF, :, None, :])

        # Reorder into the (i, ph, a) x (j, e, b) grid and gather the
        # valid states of both axes.
        n, cell = 6 * levels.size, self.space.cell
        p = t.transpose(4, 0, 1, 5, 2, 3).reshape(n, n)[np.ix_(cell, cell)]
        # Signed-zero inputs (xi_charge = -0.0, say) give -0.0 products;
        # + 0.0 stores them as the +0.0 that a sum of both branches started
        # from 0 gives, so no bit depends on which zero branches were skipped.
        p += 0.0
        _check_stochastic(p)
        return p


def build_transition_matrix(params: SystemParams,
                            service_success: float | None = None) -> TransitionMatrix:
    """Form the one-slot chain for the given parameters.

    ``service_success`` overrides the probability that a serving slot
    completes its transmission; the default is the whole-slot OFF
    persistence (a transmission survives only if no primary activity
    interrupts it).  Passing the kernel's a00 instead models a cell
    whose transmissions fit the OFF periods exactly, which is the
    collision-free reference used by the region comparison.
    """
    traffic = params.traffic
    k_cap = traffic.capacity_k
    kernel = slot_kernel(params.pnp, traffic.slot_d)
    succ = kernel.off_persist if service_success is None else float(service_success)
    if not (0.0 <= succ <= kernel.a00 + 1e-12):
        raise InvalidParameterError("service_success must lie in [0, a00]")

    space = enumerate_states(k_cap)
    levels = np.arange(k_cap + 1)

    # w[ph, a, e, c]: phase branches.  Only a serving OFF slot can clear a
    # packet: success needs one OFF period covering the slot, and an
    # interrupted attempt still ends OFF with the rest of a00 or ends ON
    # with a01.  A branch of weight <= 0 contributes nothing.
    w = np.zeros((2, 3, 2, 2))
    w[Phase.OFF, :, :, 0] = (kernel.a00, kernel.a01)
    w[Phase.ON, :, :, 0] = (kernel.a10, kernel.a11)
    w[Phase.OFF, Action.SERVE, Phase.OFF] = (kernel.a00 - succ, succ)
    w = np.maximum(w, 0.0)

    # q[c, i, j]: arrivals are admitted while the buffer (still holding any
    # in-service packet) has room, so column K takes every count >= K - i;
    # a departure at the slot end shifts the row one column left.  The
    # tail is 1 - sum_{k < m} pmf(k) clamped into [0, 1], as arrival_tail
    # forms it: cumsum adds in the same order as its loop.
    pmf = np.array([arrival_pmf(traffic, n) for n in range(k_cap + 1)])
    tail = np.empty(k_cap + 1)
    tail[0] = 1.0
    tail[1:] = np.minimum(1.0, np.maximum(0.0, 1.0 - np.cumsum(pmf[:-1])))
    gap = levels[None, :] - levels[:, None]
    q = np.zeros((2, k_cap + 1, k_cap + 1))
    q[0] = np.where(gap >= 0, pmf[np.maximum(gap, 0)], 0.0)
    q[0, :, k_cap] = tail[k_cap - levels]
    q[1, :, :-1] = q[0, :, 1:]

    # dec[empty, e, b]: the decision law depends only on the end phase and
    # on whether the queue is empty.
    dec = np.array([[decision_distribution(e, params.sensing, params.policy, empty)
                     for e in _PHASES] for empty in (False, True)])

    # W[i, ph, e, c] = sum_a d[i, ph, a] w[ph, a, e, c], then
    # Q[i, ph, j, e] = sum_c W[i, ph, e, c] q[c, i, j].
    lumped_w = (dec[:, :, :, None, None] * w).sum(axis=2)[(levels == 0).astype(int)]
    lumped = (lumped_w[:, :, None, :, 0] * q[0, :, None, :, None]
              + lumped_w[:, :, None, :, 1] * q[1, :, None, :, None])
    return TransitionMatrix(lumped=lumped.reshape(2 * (k_cap + 1), 2 * (k_cap + 1)),
                            decision=dec, space=space, kernel=kernel, service_success=succ,
                            branches=w, shifts=q)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary row vector of a transition matrix.

    Attributes:
        vector: probabilities in canonical state order, entries
            nonnegative and summing to 1 up to rounding.
        residual: infinity-norm of mu @ M - mu for the vector mu that
            was solved for, after cleanup.  M is the lumped matrix Q
            when solved from a TransitionMatrix, which bounds the same
            norm for the full chain; otherwise the matrix given.
        method: "direct", the dense LU solve, the only path.
        space: the state space, when solved from a TransitionMatrix.
    """

    vector: np.ndarray
    residual: float
    method: str
    space: StateSpace | None = None


_RESIDUAL_BOUND = 1e-10


def _solve(p: np.ndarray, states: int) -> tuple[np.ndarray, float]:
    """Stationary vector of p supported on its leading ``states`` states.

    The balance equations of that block, one replaced by normalization,
    are solved by LU; negative entries are clipped to 0, the rest
    renormalized and padded with zeros.  The answer is accepted exactly
    when ||mu p - mu||_inf <= 1e-10 over all of p.
    """
    a = p[:states, :states].T - np.eye(states)
    a[0, :] = 1.0  # replace one balance equation with normalization
    b = np.zeros(states)
    b[0] = 1.0
    mu = np.zeros(p.shape[0])
    try:
        mu[:states] = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise NoConvergenceError("singular balance equations", np.inf) from None
    # The normalization row makes the sum 1 and clipping only raises it,
    # so the division is safe; the test is written so that NaN fails too.
    mu = np.where(mu < 0.0, 0.0, mu)
    mu = mu / mu.sum()
    residual = float(np.max(np.abs(mu @ p - mu)))
    if not residual <= _RESIDUAL_BOUND:
        raise NoConvergenceError(f"direct solve residual {residual:.3e}", residual)
    return mu, residual


def stationary_distribution(tm: TransitionMatrix | np.ndarray) -> StationaryDistribution:
    """Solve mu = mu P for a row-stochastic matrix by one direct solve.

    Accepts either a built TransitionMatrix or a bare square ndarray.
    The dense solve replaces one balance equation with normalization,
    clips negative rounding noise to 0 and renormalizes; the result is
    accepted when its residual is <= 1e-10.  Otherwise, as when the
    balance equations are singular because the stationary law is not
    unique, NoConvergenceError is raised with that residual.

    A TransitionMatrix is solved on its lumped (queue, phase) matrix Q,
    and the answer nu is expanded to mu(i, ph, a) = nu(i, ph) d[i, ph, a]
    in state order, so the two excluded states, whose decision mass is
    exactly 0, are dropped.  The reported residual is that of nu under Q,
    which bounds the residual of mu under the full matrix.  A chain that
    admits no arrival (pmf(0) == 1, as at lam = 0) cannot leave the empty
    level, and the queue starts empty: nu is then solved on the level-0
    block and is zero above it.
    """
    if not isinstance(tm, TransitionMatrix):
        p = np.asarray(tm, dtype=float)
        _check_stochastic(p)
        mu, residual = _solve(p, p.shape[0])
        return StationaryDistribution(vector=mu, residual=residual, method="direct")

    states = 2 if tm.shifts[0, 0, 0] == 1.0 else tm.lumped.shape[0]
    nu, residual = _solve(tm.lumped, states)
    k_cap = tm.space.capacity_k
    grid = nu.reshape(k_cap + 1, 2, 1) * tm.decision[(np.arange(k_cap + 1) == 0).astype(int)]
    # + 0.0 turns a -0.0 product (from a -0.0 decision probability) into
    # the +0.0 a solve would give.
    mu = grid.ravel()[tm.space.cell] + 0.0
    return StationaryDistribution(vector=mu, residual=residual, method="direct", space=tm.space)
