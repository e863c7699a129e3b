"""Single-slot laws: phase endpoints, arrival counts, and the action draw.

Everything the slot-to-slot chain needs is a product of three independent
pieces, each computable in closed form:

* the primary phase observed at consecutive slot boundaries, plus the
  probability that one OFF (or ON) period covers a whole slot,
* the Poisson number of packet arrivals during a slot,
* the randomized action taken after sensing at a slot boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .params import PnpModel, PolicyModel, SensingModel, TrafficModel


class Phase(IntEnum):
    """True primary-network phase at a slot boundary."""

    OFF = 0
    ON = 1


class Action(IntEnum):
    """Access-point action committed for one slot."""

    IDLE = 0
    SERVE = 1
    CHARGE = 2


@dataclass(frozen=True)
class SlotTransitionKernel:
    """Boundary-to-boundary phase law of the alternating renewal process.

    ``aXY`` is the probability the phase is Y at the end of a slot given
    it was X at the start (0 = OFF, 1 = ON).  ``off_persist`` is the
    probability that a slot starting OFF sees no switch at all, which is
    strictly stronger than ending OFF; same for ``on_persist``.
    """

    a00: float
    a01: float
    a10: float
    a11: float
    off_persist: float
    on_persist: float

    def __post_init__(self):
        for name in ("a00", "a01", "a10", "a11", "off_persist", "on_persist"):
            v = getattr(self, name)
            if not (math.isfinite(v) and -1e-12 <= v <= 1.0 + 1e-12):
                raise InvalidParameterError(f"kernel field {name}={v} outside [0, 1]")
        if abs(self.a00 + self.a01 - 1.0) > 1e-12 or abs(self.a10 + self.a11 - 1.0) > 1e-12:
            raise InvalidParameterError("kernel rows must sum to 1")
        if self.off_persist > self.a00 + 1e-12 or self.on_persist > self.a11 + 1e-12:
            raise InvalidParameterError("whole-slot persistence cannot exceed endpoint persistence")


@functools.lru_cache(maxsize=256)
def slot_kernel(pnp: PnpModel, slot_d: float) -> SlotTransitionKernel:
    """Closed-form phase kernel for a slot of length ``slot_d``.

    Uses expm1 so the switch probabilities stay accurate for tiny slots.
    ``slot_d`` may be 0 (degenerate slot, identity kernel); negative
    values raise.  The last 256 kernels are kept, so a search that moves
    only the traffic computes its kernel once.
    """
    if not math.isfinite(slot_d) or slot_d < 0:
        raise InvalidParameterError("slot_d must be finite and nonnegative")
    rate = pnp.mu_on + pnp.mu_off
    growth = -math.expm1(-rate * slot_d)  # 1 - exp(-rate * d), no cancellation
    a01 = pnp.mu_off * growth / rate
    a10 = pnp.mu_on * growth / rate
    return SlotTransitionKernel(
        a00=1.0 - a01,
        a01=a01,
        a10=a10,
        a11=1.0 - a10,
        off_persist=math.exp(-pnp.mu_off * slot_d),
        on_persist=math.exp(-pnp.mu_on * slot_d),
    )


@functools.lru_cache(maxsize=256)
def arrival_pmf_row(traffic: TrafficModel, k_max: int) -> tuple[float, ...]:
    """(P(exactly k arrivals in one slot) for k in 0..k_max).

    The count is Poisson with mean n * lam * slot_d.  Evaluated in log
    space, with one log(mean), so means in the thousands neither overflow
    nor raise; k = 0 keeps the exact exp(-mean) form.  The last 256 rows
    are kept, so a search that moves only the activity computes its row
    once; a row is a tuple, so no caller can change a kept one.
    """
    mean = traffic.mean_arrivals_per_slot
    if mean == 0.0:
        return (1.0,) + (0.0,) * k_max
    lm = math.log(mean)
    return (math.exp(-mean), *[math.exp(k * lm - mean - math.lgamma(k + 1))
                               for k in range(1, k_max + 1)])


def tail_rows(pmf: np.ndarray) -> np.ndarray:
    """P(at least m arrivals) for m = 0..K, from pmf rows 0..K along the last axis.

    Computed as 1 - sum_{k < m} pmf(k), added left to right, so that a
    pmf row capped with this tail sums to 1 up to a final rounding, then
    floored at 0.
    """
    tail = np.empty_like(pmf)
    tail[..., 0] = 1.0
    tail[..., 1:] = np.maximum(0.0, 1.0 - np.cumsum(pmf[..., :-1], axis=-1))
    return tail


def arrival_tail(traffic: TrafficModel, k_min: int) -> float:
    """P(at least k_min arrivals in one slot): entry k_min of tail_rows."""
    return float(tail_rows(np.array(arrival_pmf_row(traffic, max(k_min, 0))))[-1])


class ActionPmf(NamedTuple):
    """Distribution of the committed action at one slot boundary."""

    idle: float
    serve: float
    charge: float


def decision_distribution(phase_at_sense: Phase, sensing: SensingModel,
                          policy: PolicyModel, queue_empty: bool = False) -> ActionPmf:
    """Action law given the true phase at the sensing instant.

    The channel is perceived free with probability 1 - p_false_alarm
    when the primary is OFF and 1 - p_detect when it is ON.  Perceived
    busy, or an idle coin with probability theta_idle, forces Idle;
    otherwise the AP charges with probability xi_charge and serves with
    the complement.  With an empty queue the serve mass folds into Idle,
    so the returned probabilities always sum to exactly 1.
    """
    if phase_at_sense == Phase.OFF:
        free = 1.0 - sensing.p_false_alarm
    else:
        free = 1.0 - sensing.p_detect
    act = free * (1.0 - policy.theta_idle)
    charge = act * policy.xi_charge
    serve = 0.0 if queue_empty else act * (1.0 - policy.xi_charge)
    return ActionPmf(idle=1.0 - serve - charge, serve=serve, charge=charge)
