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

Region searches probe many points of one K whose chains do not depend
on each other, so the builder and the solve work on stacks:
``build_chains`` forms every factor and lumped matrix with a leading
point axis, and ``stationary_vectors`` solves the whole stack with one
batched LU per support size (the points that admit no arrival form
their own group).  Every operation is elementwise or runs along one point's
own axes, so each point gets the bits it gets alone.  A stack fails as
a whole: the validation and the solve raise for the stack, not for a
chosen member; a caller that needs the error of the first failing point
takes the points one at a time.  ``build_transition_matrix`` and
``stationary_distribution`` are the stacks of one point.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NoConvergenceError
from .params import SystemParams
from .slot import Action, Phase, arrival_pmf_row, decision_distribution, slot_kernel

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
    same triples as integer arrays.

    Every array a build, a solve or a metric of this K reads is formed
    here once, read-only:

    * per state, the masks the metrics reduce over: ``serving`` (OFF and
      Serve, one state per level 1..K in order), ``interfering`` (ON and
      not Idle) and ``charging`` (Charge);
    * per queue level, the index arrays of the build: ``lag[i, j]`` =
      j - i clipped at 0, ``ahead[i, j]`` = j >= i, ``room[i]`` = K - i,
      and ``empty[i]`` = 1 on level 0, the decision row the level uses.
    """

    capacity_k: int
    states: tuple[State, ...]
    cell: np.ndarray = field(compare=False, repr=False)
    queue: np.ndarray = field(compare=False, repr=False)
    phase: np.ndarray = field(compare=False, repr=False)
    action: np.ndarray = field(compare=False, repr=False)
    serving: np.ndarray = field(compare=False, repr=False)
    interfering: np.ndarray = field(compare=False, repr=False)
    charging: np.ndarray = field(compare=False, repr=False)
    lag: np.ndarray = field(compare=False, repr=False)
    ahead: np.ndarray = field(compare=False, repr=False)
    room: np.ndarray = field(compare=False, repr=False)
    empty: np.ndarray = field(compare=False, repr=False)

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


def enumerate_states(capacity_k: int) -> StateSpace:
    """The state space for buffer capacity K, built once per K and shared.

    The argument is validated before the cache lookup, so 10.0 and True
    raise rather than find the space of an equal int.
    """
    if not isinstance(capacity_k, int) or isinstance(capacity_k, bool) or capacity_k < 1:
        raise InvalidParameterError("capacity_k must be an integer >= 1")
    return _state_space(capacity_k)


@functools.lru_cache(maxsize=64)
def _state_space(capacity_k: int) -> StateSpace:
    cell = np.delete(np.arange(6 * (capacity_k + 1)), _EXCLUDED)
    queue, phase, action = np.indices((capacity_k + 1, 2, 3)).reshape(3, -1)[:, cell]
    levels = np.arange(capacity_k + 1)
    gap = levels[None, :] - levels[:, None]
    arrays = dict(cell=cell, queue=queue, phase=phase, action=action,
                  serving=(phase == Phase.OFF) & (action == Action.SERVE),
                  interfering=(phase == Phase.ON) & (action != Action.IDLE),
                  charging=action == Action.CHARGE,
                  lag=np.maximum(gap, 0), ahead=gap >= 0, room=capacity_k - levels,
                  empty=(levels == 0).astype(int))
    for array in arrays.values():
        array.setflags(write=False)
    states = tuple((i, _PHASES[ph], _ALL_ACTIONS[a])
                   for i, ph, a in zip(queue.tolist(), phase.tolist(), action.tolist()))
    return StateSpace(capacity_k=capacity_k, states=states, **arrays)


def _check_stochastic(p: np.ndarray) -> None:
    """Raise unless every matrix of the stack p has entries in [0, 1], rows summing to 1.

    p has shape (B, n, n) with n >= 1 and is checked as a whole, entries first.
    """
    if p.min() < -1e-12 or p.max() > 1.0 + 1e-12:
        raise InvalidParameterError("matrix entries outside [0, 1]")
    # Written so that a NaN entry, and with it a NaN row sum, fails here.
    if not np.all(np.abs(p.sum(axis=2) - 1.0) <= 1e-10):
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
    service_success: float
    branches: np.ndarray = field(repr=False)
    shifts: np.ndarray = field(repr=False)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        w, q = self.branches, self.shifts
        empty = self.space.empty
        d = self.decision[empty].transpose(1, 2, 0)

        # t[ph, a, e, b, i, j]: each product is formed as (w q) d, the same
        # two roundings as weight * mass * decision, with the queue axes
        # innermost.  Only a serving OFF slot that ends OFF has a departure
        # branch; every other c = 1 weight is 0 and adds nothing.
        t = (w[:, :, :, 0, None, None, None] * q[0]) * d[:, :, None, :]
        t[Phase.OFF, Action.SERVE, Phase.OFF] += (
            (w[Phase.OFF, Action.SERVE, Phase.OFF, 1] * q[1]) * d[Phase.OFF, :, None, :])

        # Reorder into the (i, ph, a) x (j, e, b) grid and gather the
        # valid states of both axes.
        n, cell = 6 * empty.size, self.space.cell
        p = t.transpose(4, 0, 1, 5, 2, 3).reshape(n, n)[np.ix_(cell, cell)]
        # Signed-zero inputs (xi_charge = -0.0, say) give -0.0 products;
        # + 0.0 stores them as the +0.0 that a sum of both branches started
        # from 0 gives, so no bit depends on which zero branches were skipped.
        p += 0.0
        _check_stochastic(p[None])
        return p


def _per_distinct(points: Sequence[SystemParams], key, make) -> np.ndarray:
    """np.array([make(p) for p in points]), calling make once per distinct key(p)."""
    first: dict = {}
    index = [first.setdefault(key(p), (len(first), p))[0] for p in points]
    rows = np.array([make(p) for _, p in first.values()])
    return rows if len(rows) == len(index) else rows[index]


class ChainStack(NamedTuple):
    """One-slot chains of one capacity K, their arrays stacked on a leading axis.

    Along axis 0, ``lumped``, ``decision``, ``branches``, ``shifts`` and
    ``service_success`` hold the arrays and the success probability of
    each point's TransitionMatrix.
    """

    lumped: np.ndarray
    decision: np.ndarray
    branches: np.ndarray
    shifts: np.ndarray
    service_success: np.ndarray
    space: StateSpace


def build_chains(points: Sequence[SystemParams],
                 service_success: float | None = None) -> ChainStack:
    """Form the one-slot chains of points that share one capacity K, stacked.

    Each chain has the bits it has when built alone.  The kernel, the
    arrival pmf row and the decision law are computed once per distinct
    (PnpModel, slot length), TrafficModel and (SensingModel, PolicyModel)
    among the points.  ``service_success`` is as for
    build_transition_matrix and applies to every point; a value outside
    [0, a00] of any point raises.  The lumped matrices are validated as
    one stack, which raises as a whole.
    """
    if not points:
        raise InvalidParameterError("build_chains needs at least one point")
    k_cap = points[0].traffic.capacity_k
    if any(p.traffic.capacity_k != k_cap for p in points):
        raise InvalidParameterError("stacked chains must share capacity_k")
    space = enumerate_states(k_cap)

    # kern[:, :4] = (a00, a01, a10, a11); the default success probability,
    # off_persist, lies in [0, a00] by the kernel's own validation.
    def kernel_row(p):
        k = slot_kernel(p.pnp, p.traffic.slot_d)
        return k.a00, k.a01, k.a10, k.a11, k.off_persist
    kern = _per_distinct(points, lambda p: (p.pnp, p.traffic.slot_d), kernel_row)
    succ = kern[:, 4]
    if service_success is not None:
        succ = np.full(len(points), float(service_success))
        if not np.all((0.0 <= succ) & (succ <= kern[:, 0] + 1e-12)):
            raise InvalidParameterError("service_success must lie in [0, a00]")
    count = len(points)

    # w[ph, a, e, c]: phase branches.  Only a serving OFF slot can clear a
    # packet: success needs one OFF period covering the slot, and an
    # interrupted attempt still ends OFF with the rest of a00 or ends ON
    # with a01.  A branch of weight <= 0 contributes nothing.
    w = np.zeros((count, 2, 3, 2, 2))
    w[..., 0] = kern[:, :4].reshape(count, 2, 1, 2)
    w[:, Phase.OFF, Action.SERVE, Phase.OFF, 0] = kern[:, 0] - succ
    w[:, Phase.OFF, Action.SERVE, Phase.OFF, 1] = succ
    w = np.maximum(w, 0.0)

    # q[c, i, j]: arrivals are admitted while the buffer (still holding any
    # in-service packet) has room, so column K takes every count >= K - i;
    # a departure at the slot end shifts the row one column left.  The
    # tail is 1 - sum_{k < m} pmf(k) clamped into [0, 1], as arrival_tail
    # forms it: cumsum adds in the same order as its loop.
    pmf = _per_distinct(points, lambda p: p.traffic,
                        lambda p: arrival_pmf_row(p.traffic, k_cap))
    tail = np.empty((count, k_cap + 1))
    tail[:, 0] = 1.0
    tail[:, 1:] = np.minimum(1.0, np.maximum(0.0, 1.0 - np.cumsum(pmf[:, :-1], axis=1)))
    q = np.zeros((count, 2, k_cap + 1, k_cap + 1))
    q[:, 0] = np.where(space.ahead, pmf[:, space.lag], 0.0)
    q[:, 0, :, k_cap] = tail[:, space.room]
    q[:, 1, :, :-1] = q[:, 0, :, 1:]

    # dec[empty, e, b]: the decision law depends only on the end phase and
    # on whether the queue is empty.
    dec = _per_distinct(points, lambda p: (p.sensing, p.policy),
                        lambda p: [[decision_distribution(e, p.sensing, p.policy, empty)
                                    for e in _PHASES] for empty in (False, True)])

    # W[i, ph, e, c] = sum_a d[i, ph, a] w[ph, a, e, c], then
    # Q[i, ph, j, e] = sum_c W[i, ph, e, c] q[c, i, j], formed one end
    # phase e at a time so that the inner loop runs along j.
    lumped_w = (dec[..., None, None] * w[:, None]).sum(axis=3)[:, space.empty]
    lumped = np.empty((count, k_cap + 1, 2, k_cap + 1, 2))
    for e in range(2):
        np.multiply(lumped_w[:, :, :, None, e, 0], q[:, 0, :, None, :], out=lumped[..., e])
        lumped[..., e] += lumped_w[:, :, :, None, e, 1] * q[:, 1, :, None, :]
    lumped = lumped.reshape(count, 2 * (k_cap + 1), 2 * (k_cap + 1))
    _check_stochastic(lumped)
    return ChainStack(lumped=lumped, decision=dec, branches=w, shifts=q,
                      service_success=succ, space=space)


def build_transition_matrix(params: SystemParams,
                            service_success: float | None = None) -> TransitionMatrix:
    """Form the one-slot chain for the given parameters.

    ``service_success`` overrides the probability that a serving slot
    completes its transmission; the default is the whole-slot OFF
    persistence (a transmission survives only if no primary activity
    interrupts it).  Passing the kernel's a00 instead models a cell
    whose transmissions fit the OFF periods exactly, which is the
    collision-free reference used by the region comparison.  This is
    build_chains of the one point.
    """
    chains = build_chains([params], service_success)
    return TransitionMatrix(lumped=chains.lumped[0], decision=chains.decision[0],
                            space=chains.space, service_success=float(chains.service_success[0]),
                            branches=chains.branches[0], shifts=chains.shifts[0])


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary row vector of a transition matrix.

    Attributes:
        vector: probabilities in canonical state order, entries
            nonnegative and summing to 1 up to rounding.
        residual: infinity-norm of nu @ Q - nu for the lumped law nu
            solved for on the chain's lumped matrix Q, after cleanup; it
            bounds the same norm of the vector under the full chain.
        method: SOLVER_METHOD ("direct"), the dense LU solve, the only path.
    """

    vector: np.ndarray
    residual: float
    method: str


_RESIDUAL_BOUND = 1e-10
#: The method every stationary law is solved with, as reports name it.
SOLVER_METHOD = "direct"


def _solve(p: np.ndarray, states: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Stationary vectors of the stack p, member b supported on its leading states[b].

    For each member the balance equations of that block, one replaced by
    normalization, are solved by LU; negative entries are clipped to 0,
    the rest renormalized and padded with zeros.  An answer is accepted
    exactly when ||mu p - mu||_inf <= 1e-10 over all of p.  Otherwise the
    stack raises NoConvergenceError, with residual inf as soon as any
    member's balance equations are singular.
    """
    mu = np.zeros(p.shape[:2])
    for n in set(states):
        rows = [b for b, size in enumerate(states) if size == n]
        if len(rows) == len(states):
            rows = slice(None)  # the whole stack: no gather
        a = p[rows, :n, :n].transpose(0, 2, 1) - np.eye(n)
        a[:, 0, :] = 1.0  # replace one balance equation with normalization
        b = np.zeros((len(a), n, 1))
        b[:, 0] = 1.0
        try:
            mu[rows, :n] = np.linalg.solve(a, b)[..., 0]
        except np.linalg.LinAlgError:
            raise NoConvergenceError("singular balance equations", np.inf) from None
    # The normalization row makes each sum 1 and clipping only raises it,
    # so the division is safe; the test is written so that NaN fails too.
    mu = np.where(mu < 0.0, 0.0, mu)
    mu = mu / mu.sum(axis=1, keepdims=True)
    residual = np.abs((mu[:, None, :] @ p)[:, 0] - mu).max(axis=1)
    if not np.all(residual <= _RESIDUAL_BOUND):
        first = int(np.argmin(residual <= _RESIDUAL_BOUND))
        raise NoConvergenceError(f"direct solve residual {residual[first]:.3e}",
                                 float(residual[first]))
    return mu, residual


def stationary_vectors(chains: ChainStack) -> tuple[np.ndarray, np.ndarray]:
    """Stationary laws of a chain stack in state order, and their residuals.

    Row b of the first array is ``stationary_distribution`` of point b's
    chain, with the same bits, and entry b of the second its residual.
    The stack is solved as one, and fails as one.
    """
    k_cap = chains.space.capacity_k
    # A chain that admits no arrival is solved on its closed empty level.
    states = [2 if closed else 2 * (k_cap + 1)
              for closed in (chains.shifts[:, 0, 0, 0] == 1.0).tolist()]
    nu, residual = _solve(chains.lumped, states)
    grid = nu.reshape(-1, k_cap + 1, 2, 1) * chains.decision[:, chains.space.empty]
    # + 0.0 turns a -0.0 product (from a -0.0 decision probability) into
    # the +0.0 a solve would give.
    return grid.reshape(len(nu), -1)[:, chains.space.cell] + 0.0, residual


def stationary_distribution(tm: TransitionMatrix) -> StationaryDistribution:
    """Solve mu = mu P for a built chain by one direct solve of its lumped matrix Q.

    The dense solve replaces one balance equation with normalization,
    clips negative rounding noise to 0 and renormalizes; the result is
    accepted when its residual is <= 1e-10.  Otherwise, as when the
    balance equations are singular because the stationary law is not
    unique, NoConvergenceError is raised with that residual.

    The answer nu is expanded to mu(i, ph, a) = nu(i, ph) d[i, ph, a]
    in state order, so the two excluded states, whose decision mass is
    exactly 0, are dropped.  The reported residual is that of nu under Q,
    which bounds the residual of mu under the full matrix.  A chain that
    admits no arrival (pmf(0) == 1, as at lam = 0) cannot leave the empty
    level, and the queue starts empty: nu is then solved on the level-0
    block and is zero above it.  This is the one-point case of
    ``stationary_vectors``.
    """
    one = ChainStack(lumped=tm.lumped[None], decision=tm.decision[None],
                     branches=tm.branches[None], shifts=tm.shifts[None],
                     service_success=np.array([tm.service_success]), space=tm.space)
    mu, residual = stationary_vectors(one)
    return StationaryDistribution(vector=mu[0], residual=float(residual[0]),
                                  method=SOLVER_METHOD)
