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

``build_transition_matrix`` forms the dense row-stochastic matrix as one
array product over the full (K+1) x 2 x 3 grid,
P[(i, ph, a), (j, e, b)] = sum_c (w[ph, a, e, c] q_c[i, j]) d[j, e, b],
and then drops the two excluded states.  ``stationary_distribution``
solves mu = mu P with a direct dense solve and a damped power-iteration
fallback, without assuming irreducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, NoConvergenceError
from .params import SystemParams
from .slot import (Action, Phase, SlotTransitionKernel, arrival_pmf, arrival_tail,
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
    removed.  ``queue``, ``phase`` and ``action`` hold the same triples
    as read-only integer arrays, so metrics can mask and reduce over
    states without touching ``states`` or ``index``.
    """

    capacity_k: int
    states: tuple[State, ...]
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
        if queue == 0:
            if action == Action.SERVE:
                raise InvalidParameterError("state (0, phase, Serve) is excluded")
            return 2 * int(phase) + (1 if action == Action.CHARGE else 0)
        return 4 + 6 * (queue - 1) + 3 * int(phase) + int(action)

    def state(self, idx: int) -> State:
        return self.states[idx]


def enumerate_states(capacity_k: int) -> StateSpace:
    if not isinstance(capacity_k, int) or capacity_k < 1:
        raise InvalidParameterError("capacity_k must be an integer >= 1")
    grid = np.delete(np.indices((capacity_k + 1, 2, 3)).reshape(3, -1), _EXCLUDED, axis=1)
    grid.setflags(write=False)
    queue, phase, action = grid
    states = tuple((i, _PHASES[ph], _ALL_ACTIONS[a])
                   for i, ph, a in zip(*grid.tolist()))
    return StateSpace(capacity_k=capacity_k, states=states,
                      queue=queue, phase=phase, action=action)


def _check_stochastic(p: np.ndarray) -> None:
    """Raise unless p is square, with entries in [0, 1] and rows summing to 1."""
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InvalidParameterError("matrix must be square")
    if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
        raise InvalidParameterError("matrix entries outside [0, 1]")
    if not np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-10):
        raise InvalidParameterError("matrix rows must sum to 1 within 1e-10")


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense one-slot transition matrix plus the context it was built from."""

    matrix: np.ndarray
    space: StateSpace
    kernel: SlotTransitionKernel
    service_success: float

    def __post_init__(self):
        _check_stochastic(self.matrix)
        if self.matrix.shape[0] != self.space.size:
            raise InvalidParameterError("matrix shape does not match the state space")


def build_transition_matrix(params: SystemParams,
                            service_success: float | None = None) -> TransitionMatrix:
    """Assemble the one-slot chain for the given parameters.

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
    # in-service packet) has room, so column K takes every count >= K - i
    # (tail[0] = 1); a departure at the slot end shifts the row one column
    # left.
    pmf = np.array([arrival_pmf(traffic, n) for n in range(k_cap + 1)])
    tail = np.array([arrival_tail(traffic, n) for n in range(k_cap + 1)])
    gap = levels[None, :] - levels[:, None]
    q = np.zeros((2, k_cap + 1, k_cap + 1))
    q[0] = np.where(gap >= 0, pmf[np.maximum(gap, 0)], 0.0)
    q[0, :, k_cap] = tail[k_cap - levels]
    q[1, :, :-1] = q[0, :, 1:]

    # d[j, e, b]: the decision law depends only on the end phase and on
    # whether queue j is empty.
    dec = np.array([[decision_distribution(e, params.sensing, params.policy, empty)
                     for e in _PHASES] for empty in (False, True)])
    d = dec[(levels == 0).astype(int)]

    # Each product is formed as (w q) d, the same two roundings as
    # weight * mass * decision, and at most two branches share a cell.
    full = np.zeros((k_cap + 1, 2, 3, k_cap + 1, 2, 3))
    for c in (0, 1):
        full += (w[None, :, :, None, :, c, None] * q[c][:, None, None, :, None, None]) * d
    n = full.shape[0] * 6
    keep = np.delete(np.arange(n), _EXCLUDED)
    p = full.reshape(n, n)[np.ix_(keep, keep)]
    return TransitionMatrix(matrix=p, space=space, kernel=kernel, service_success=succ)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary row vector of a transition matrix.

    Attributes:
        vector: probabilities in canonical state order, entries clamped
            to be nonnegative and normalized to sum 1.
        residual: infinity-norm of vector @ P - vector after cleanup.
        method: "direct" (dense solve) or "power" (iterative fallback).
        space: the state space, when solved from a TransitionMatrix.
    """

    vector: np.ndarray
    residual: float
    method: str
    space: StateSpace | None = None

    def prob(self, queue: int, phase: Phase, action: Action) -> float:
        if self.space is None:
            raise InvalidParameterError("no state space attached to this distribution")
        return float(self.vector[self.space.index(queue, phase, action)])


_DIRECT_RESIDUAL = 1e-10
_POWER_TOL = 1e-12
_POWER_CAP = 1_000_000


def _cleanup(mu: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    mu = np.where(mu < 0.0, 0.0, mu)
    total = mu.sum()
    if total <= 0.0:
        return mu, np.inf
    mu = mu / total
    residual = float(np.max(np.abs(mu @ p - mu)))
    return mu, residual


def _direct_solve(p: np.ndarray) -> tuple[np.ndarray, float] | None:
    n = p.shape[0]
    a = p.T - np.eye(n)
    a[0, :] = 1.0  # replace one balance equation with normalization
    b = np.zeros(n)
    b[0] = 1.0
    try:
        mu = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    if np.min(mu) < -1e-14 or abs(mu.sum() - 1.0) > 1e-12:
        return None
    mu, residual = _cleanup(mu, p)
    if residual > _DIRECT_RESIDUAL:
        return None
    return mu, residual


def _power_solve(p: np.ndarray) -> tuple[np.ndarray, float]:
    n = p.shape[0]
    mu = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(_POWER_CAP):
        step = mu @ p
        residual = float(np.max(np.abs(step - mu)))
        # Half step keeps fixed points and damps period-2 cycles.
        mu = 0.5 * (mu + step)
        if residual <= _POWER_TOL:
            break
    if residual > _DIRECT_RESIDUAL:
        raise NoConvergenceError(
            f"power iteration stalled at residual {residual:.3e}", residual)
    return _cleanup(mu, p)


def stationary_distribution(tm: TransitionMatrix | np.ndarray) -> StationaryDistribution:
    """Solve mu = mu P for a row-stochastic matrix.

    Accepts either a built TransitionMatrix or a bare square ndarray.
    The direct solve replaces one balance equation with normalization;
    its result is accepted only if it is a near-exact probability vector
    with residual <= 1e-10, otherwise a damped power iteration from the
    uniform vector takes over (tolerance 1e-12, capped at 1e6 steps).
    Reducible chains are solved as-is; whichever stationary vector the
    procedure lands on is returned.
    """
    if isinstance(tm, TransitionMatrix):
        p = tm.matrix
        space = tm.space
    else:
        p = np.asarray(tm, dtype=float)
        space = None
        _check_stochastic(p)

    direct = _direct_solve(p)
    if direct is not None:
        mu, residual = direct
        return StationaryDistribution(vector=mu, residual=residual, method="direct", space=space)
    mu, residual = _power_solve(p)
    return StationaryDistribution(vector=mu, residual=residual, method="power", space=space)
