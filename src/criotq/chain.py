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

``build_chains`` forms Q from the three factors and keeps them, so the
dense (6K + 4)^2 matrix P of each point is assembled only when, and
each time, something reads ``ChainStack.matrix``: array products over
whole (K+1) x (K+1) queue blocks, one per (ph, a, e, b), gathered into
state order through ``StateSpace.cell``, which drops the two excluded
states.
Every entry of P has the bits of the formula above evaluated cell by
cell; the tests keep a broadcast over the full grid as the reference.
The state space of each K is built once and shared.

The stationary solve finds nu = nu Q by one direct dense solve and
forms pi = nu d on the full (K+1) x 2 x 3 grid, zero in the two
excluded cells; the reports sum slices of it, and only
``stationary_distribution`` gathers it into state order through
``cell``.  Its residual ||nu Q - nu||_inf bounds ||pi P - pi||_inf by
the identity above, since every entry of d lies in [0, 1].  A solve
whose residual exceeds 1e-10 raises rather than iterating.  The one
degenerate case with a fixed answer, a chain that admits no arrival,
is solved on the closed empty level.

Region searches probe many points of one K whose chains do not depend
on each other, so the builder and the solve work on stacks:
``build_chains`` reads each point's slot laws from the one memo of each
law and forms every factor and lumped matrix with a leading point axis,
and ``stationary_vectors`` solves the whole stack with one batched LU
per support size (the points that admit no arrival form their own
group) into each point's grid pi.  Every operation is elementwise or
runs along one point's own axes, so each point gets the bits it gets
alone.  A stack fails as a whole: the validation and the solve raise
for the stack, not for a chosen member; a caller that needs the error
of the first failing point takes the points one at a time.
``build_transition_matrix`` is the stack of one point, and
``stationary_distribution`` and ``departure_distributions`` read such a
stack.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NoConvergenceError
from .params import PolicyModel, SensingModel, SystemParams, _is_int, _is_integral
from .slot import Action, Phase, arrival_pmf_row, decision_distribution, slot_kernel, tail_rows

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
    gathering through it.  The integer arrays ``queue``, ``phase`` and
    ``action`` are the state list: state s is (queue[s], phase[s], action[s]).

    Every array a build, a solve or a metric of this K reads is formed
    here once, read-only:

    * per state, the mask ``serving`` (OFF and Serve, one state per
      level 1..K in order) that the post-departure law reads; the
      reports slice the stationary grid instead;
    * per queue level, the index arrays of the build: ``lag[i, j]`` =
      j - i clipped at 0, ``ahead[i, j]`` = j >= i, ``room[i]`` = K - i,
      and ``empty[i]`` = 1 on level 0, the decision row the level uses.
    """

    capacity_k: int
    cell: np.ndarray = field(compare=False, repr=False)
    queue: np.ndarray = field(compare=False, repr=False)
    phase: np.ndarray = field(compare=False, repr=False)
    action: np.ndarray = field(compare=False, repr=False)
    serving: np.ndarray = field(compare=False, repr=False)
    lag: np.ndarray = field(compare=False, repr=False)
    ahead: np.ndarray = field(compare=False, repr=False)
    room: np.ndarray = field(compare=False, repr=False)
    empty: np.ndarray = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return 6 * self.capacity_k + 4

    def index(self, queue: int, phase: Phase, action: Action) -> int:
        """Position of a state triple; each coordinate an int or numpy integer, not a bool."""
        for name, value, top in (("queue", queue, self.capacity_k), ("phase", phase, 1),
                                 ("action", action, 2)):
            if not (_is_integral(value) and 0 <= value <= top):
                raise InvalidParameterError(f"{name} {value!r} is not an integer in 0..{top}")
        if queue == 0 and action == Action.SERVE:
            raise InvalidParameterError("state (0, phase, Serve) is excluded")
        return int(np.searchsorted(self.cell, 6 * queue + 3 * int(phase) + int(action)))


def enumerate_states(capacity_k: int) -> StateSpace:
    """The state space for buffer capacity K, built once per K and shared.

    The argument is validated before the cache lookup, so 10.0 and True
    raise rather than find the space of an equal int.
    """
    if not (_is_int(capacity_k) and capacity_k >= 1):
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
                  lag=np.maximum(gap, 0), ahead=gap >= 0, room=capacity_k - levels,
                  empty=(levels == 0).astype(int))
    for array in arrays.values():
        array.setflags(write=False)
    return StateSpace(capacity_k=capacity_k, **arrays)


def _check_stochastic(p: np.ndarray) -> None:
    """Raise unless every matrix of the stack p has entries in [0, 1], rows summing to 1.

    p has shape (B, n, n) with n >= 1 and is checked as a whole, entries first.
    """
    if p.min() < -1e-12 or p.max() > 1.0 + 1e-12:
        raise InvalidParameterError("matrix entries outside [0, 1]")
    # Written so that a NaN entry, and with it a NaN row sum, fails here.
    if not np.all(np.abs(p.sum(axis=2) - 1.0) <= 1e-10):
        raise InvalidParameterError("matrix rows must sum to 1 within 1e-10")


@functools.lru_cache(maxsize=256)
def _decision_law(sensing: SensingModel, policy: PolicyModel) -> np.ndarray:
    """dec[empty, e] = decision_distribution(e, sensing, policy, empty); 256 kept, read-only."""
    dec = np.array([[decision_distribution(e, sensing, policy, empty) for e in Phase]
                    for empty in (False, True)])
    dec.setflags(write=False)
    return dec


class ChainStack(NamedTuple):
    """One-slot chains of one capacity K, held as their lumped form and factors.

    Each array has a leading point axis b:

    * ``lumped[b]``: the row-stochastic 2(K+1) x 2(K+1) matrix Q over
      (queue, phase) pairs, queue-major then phase, that the stationary
      solve works on;
    * ``decision[b, empty, e, a]``: the decision law of action a given the
      end phase e and whether the queue is empty (0 = not empty);
    * ``branches[b, ph, a, e, c]``: the phase branch weights w;
    * ``shifts[b, c, i, j]``: the arrival shifts q;
    * ``service_success[b]``: the success probability of a serving OFF slot.

    ``space`` is the (queue, phase, action) state space every point shares.
    """

    lumped: np.ndarray
    decision: np.ndarray
    branches: np.ndarray
    shifts: np.ndarray
    service_success: np.ndarray
    space: StateSpace

    @property
    def matrix(self) -> np.ndarray:
        """The dense (B, 6K + 4, 6K + 4) matrices over (queue, phase, action) states.

        Assembled and validated on each read, so a caller binds it once.
        """
        w, q = self.branches, self.shifts
        empty = self.space.empty
        d = self.decision[:, empty].transpose(0, 2, 3, 1)  # d[point, e, b, j]

        # t[point, ph, a, e, b, i, j]: each product is formed as (w q) d, the
        # same two roundings as weight * mass * decision, with the queue axes
        # innermost.  Only a serving OFF slot that ends OFF has a departure
        # branch; every other c = 1 weight is 0 and adds nothing.
        t = ((w[..., 0, None, None, None] * q[:, 0, None, None, None, None])
             * d[:, None, None, :, :, None, :])
        t[:, Phase.OFF, Action.SERVE, Phase.OFF] += (
            (w[:, Phase.OFF, Action.SERVE, Phase.OFF, 1, None, None, None] * q[:, 1, None])
            * d[:, Phase.OFF, :, None, :])

        # Reorder into the (i, ph, a) x (j, e, b) grid and gather the
        # valid states of both axes.
        n, cell = 6 * empty.size, self.space.cell
        p = t.transpose(0, 5, 1, 2, 6, 3, 4).reshape(-1, n, n)[:, cell[:, None], cell]
        # Signed-zero inputs (xi_charge = -0.0, say) give -0.0 products;
        # + 0.0 stores them as the +0.0 that a sum of both branches started
        # from 0 gives, so no bit depends on which zero branches were skipped.
        p += 0.0
        _check_stochastic(p)
        return p


def build_chains(points: Sequence[SystemParams], *, synchronized: bool = False) -> ChainStack:
    """Form the one-slot chains of points that share one capacity K, stacked.

    Each chain has the bits it has when built alone.  The kernel, the
    arrival pmf row and the decision law of each point are read from the
    bounded caches of ``slot_kernel``, ``arrival_pmf_row`` and
    ``_decision_law``, with no memo of their own here, so a search forms
    the factors it holds fixed once.  ``synchronized`` is as for
    ``build_transition_matrix``, must be a bool, and applies to every point.
    The lumped matrices are validated as one stack, which raises as a whole.
    """
    if not isinstance(synchronized, bool):
        raise InvalidParameterError(f"synchronized must be a bool, got {synchronized!r}")
    if not points:
        raise InvalidParameterError("build_chains needs at least one point")
    k_cap = points[0].traffic.capacity_k
    if any(p.traffic.capacity_k != k_cap for p in points):
        raise InvalidParameterError("stacked chains must share capacity_k")
    space = enumerate_states(k_cap)

    # kern[:, :4] = (a00, a01, a10, a11); the success probability, a00 or
    # off_persist, lies in [0, a00] by the kernel's own validation.
    kernels = [slot_kernel(p.pnp, p.traffic.slot_d) for p in points]
    kern = np.array([(k.a00, k.a01, k.a10, k.a11, k.off_persist) for k in kernels])
    succ = kern[:, 0 if synchronized else 4]
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
    # a departure at the slot end shifts the row one column left.
    pmf = np.array([arrival_pmf_row(p.traffic, k_cap) for p in points])
    q = np.zeros((count, 2, k_cap + 1, k_cap + 1))
    q[:, 0] = np.where(space.ahead, pmf[:, space.lag], 0.0)
    q[:, 0, :, k_cap] = tail_rows(pmf)[:, space.room]
    q[:, 1, :, :-1] = q[:, 0, :, 1:]

    # dec[empty, e, b]: the decision law depends only on the end phase and
    # on whether the queue is empty.
    dec = np.stack([_decision_law(p.sensing, p.policy) for p in points])

    # W[i, ph, e, c] = sum_a d[i, ph, a] w[ph, a, e, c], then
    # Q[i, ph, j, e] = sum_c W[i, ph, e, c] q[c, i, j], formed with j
    # innermost and copied into (i, ph) x (j, e) order one end phase at a time.
    lumped_w = (dec[..., None, None] * w[:, None]).sum(axis=3)[:, space.empty]
    by_end = lumped_w[..., 0, None] * q[:, 0, :, None, None, :]
    by_end += lumped_w[..., 1, None] * q[:, 1, :, None, None, :]
    lumped = np.empty((count, k_cap + 1, 2, k_cap + 1, 2))
    for e in range(2):
        lumped[..., e] = by_end[:, :, :, e]
    lumped = lumped.reshape(count, 2 * (k_cap + 1), 2 * (k_cap + 1))
    _check_stochastic(lumped)
    return ChainStack(lumped=lumped, decision=dec, branches=w, shifts=q,
                      service_success=succ, space=space)


def build_transition_matrix(params: SystemParams, *, synchronized: bool = False) -> ChainStack:
    """Form the one-slot chain for the given parameters, as a stack of one point.

    A serving OFF slot completes its transmission with the whole-slot
    OFF persistence (a transmission survives only if no primary activity
    interrupts it).  ``synchronized`` gives it the kernel's a00 instead,
    the probability that the slot ends OFF: a cell whose transmissions
    fit the OFF periods exactly, which is the collision-free reference
    used by the region comparison.  No other success probability can be
    set.  Every array of the result keeps its point axis of length 1, so
    its dense matrix is ``matrix[0]``.
    """
    return build_chains([params], synchronized=synchronized)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary row vector of a one-point chain.

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
    if states.count(states[0]) == len(states):
        groups = {states[0]: slice(None)}  # one support: the whole stack, no gather
    else:
        groups = {n: [b for b, size in enumerate(states) if size == n] for n in set(states)}
    for n, rows in groups.items():
        # a is the transpose of p - I, so the difference reads p in order and
        # the LU copies each matrix in column by column.
        a = (p[rows, :n, :n] - np.eye(n)).transpose(0, 2, 1)
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
    """Stationary laws of a chain stack on the (queue, phase, action) grid, and residuals.

    Entry [b, i, ph, a] of the first array, of shape (B, K+1, 2, 3), is
    pi(i, ph, a) = nu(i, ph) d[i, ph, a] of point b's chain, a zero in
    the two excluded (0, phase, Serve) cells, and entry b of the second
    its residual.  The stack is solved as one, and fails as one.
    """
    k_cap = chains.space.capacity_k
    # A chain that admits no arrival is solved on its closed empty level.
    states = [2 if closed else 2 * (k_cap + 1)
              for closed in (chains.shifts[:, 0, 0, 0] == 1.0).tolist()]
    nu, residual = _solve(chains.lumped, states)
    return nu.reshape(-1, k_cap + 1, 2, 1) * chains.decision[:, chains.space.empty], residual


def _one_point(tm: ChainStack) -> None:
    """Raise unless tm is a stack of one point, the chain the one-point readers take."""
    if len(tm.lumped) != 1:
        raise InvalidParameterError(f"expected a one-point chain, got a stack of {len(tm.lumped)}")


def stationary_distribution(tm: ChainStack) -> StationaryDistribution:
    """Solve mu = mu P for a chain of one point by one direct solve of its lumped matrix Q.

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
    block and is zero above it.  This is ``stationary_vectors`` of the
    one point, gathered into state order; a stack of more points raises.
    """
    _one_point(tm)
    grid, residual = stationary_vectors(tm)
    # + 0.0 turns a -0.0 product (from a -0.0 decision probability) into
    # the +0.0 a solve would give.
    return StationaryDistribution(vector=grid.reshape(-1)[tm.space.cell] + 0.0,
                                  residual=float(residual[0]), method=SOLVER_METHOD)
