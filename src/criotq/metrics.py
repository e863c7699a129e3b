"""Stationary QoS, interference and charging-power metrics.

All metrics are functionals of the stationary law of the slot chain.
Every stationary sum adds, left to right, a slice of that law on the
(queue, phase, action) grid.  The carried load counts only serving
slots that actually complete, with the success probability the chain
was built with; a report forms the blocked fraction P_B from it by flow
balance, and the waits from P_B and the mean queue length.
``required_power`` converts the point's effective packet throughput at
P_B into the transmit budget the access point needs to keep every node
energy-neutral.

One pass, ``_reports``, forms every stationary metric: each field of a
``QosReport`` from the built chains and stationary laws of a stack of
points.  ``qos_reports`` is the one place that builds, solves and
reports a stack of points of one capacity K; ``evaluate_qos`` is its
stack of one.  A stack fails as a whole, and ``qos_reports`` replays it
point by point to raise the error of the first failing point.  The
post-departure law is formed on its own from the built chain.
``saturation`` reads no chain: it gives the closed-form capacity and
interference floor by which the region searches skip points.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import (SOLVER_METHOD, ChainStack, StationaryDistribution, _one_point,
                    build_chains, stationary_vectors)
from .errors import (DegenerateDistributionError, InvalidParameterError,
                     MetricRangeError, NoConvergenceError)
from .params import SystemParams, _finite, activity_factor
from .slot import Action, Phase, slot_kernel

_RANGE_SLACK = 1e-9


def _clamp_probability(value: float, name: str) -> float:
    if value < -_RANGE_SLACK or value > 1.0 + _RANGE_SLACK:
        raise MetricRangeError(f"{name} = {value} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, value))


def _running_sum(values: np.ndarray) -> np.ndarray:
    """The sum of each point's entries, values[b] flattened in grid order, left to right.

    A running sum rather than numpy's pairwise one, so every metric has
    the bits of a plain loop over the states in state order.  That
    matters because P_B = 1 - rho_c / rho turns a last-bit change of
    rho_c at light load into a change in the printed digits of P_B.
    """
    return np.cumsum(values.reshape(len(values), -1), axis=1)[:, -1]


@dataclass(frozen=True)
class DepartureDistributions:
    """Queue law seen at service completions.

    kappa holds the unnormalized weights of leaving i = 0..K-1 packets
    behind right after a departure, and delta their normalization.  The
    admitted-or-dropped split of an arrival is ((1 - P_B) delta, P_B),
    with P_B the report's ``drop_prob``.
    """

    kappa: np.ndarray
    delta: np.ndarray


def departure_distributions(mu: StationaryDistribution,
                            tm: ChainStack) -> DepartureDistributions:
    """Post-departure queue law of the one-point chain tm, whose law is mu.

    A departure comes from a serving OFF state at level j = 1..K with
    tm's success probability, and leaves behind the level the chain's
    own one-departure shift q[1, j, i] gives: the slot's arrivals are
    admitted up to the buffer limit, then the served packet leaves.  So
    kappa[i] = succ sum_j pi(j, OFF, Serve) q[1, j, i], which at level
    K - 1 takes every arrival count the full buffer turns away.  A stack
    of more points raises.
    """
    _one_point(tm)
    kappa = tm.service_success[0] * (mu.vector[tm.space.serving] @ tm.shifts[0, 1, 1:, :-1])
    norm = float(kappa.sum())
    if norm <= 0.0:
        raise DegenerateDistributionError("no departure mass; distributions undefined")
    return DepartureDistributions(kappa=kappa, delta=kappa / norm)


def nominal_charge_fraction(params: SystemParams) -> float:
    """Long-run charging fraction implied by the policy alone.

    The AP charges when the primary is OFF (probability 1 - beta in the
    time average), the idle coin passes and the charge coin hits.
    Sensing errors and queue dynamics perturb the realized fraction;
    this is the design value the power budget is sized with.
    """
    beta = activity_factor(params.pnp)
    return (1.0 - beta) * (1.0 - params.policy.theta_idle) * params.policy.xi_charge


class Saturation(NamedTuple):
    """Chain-free bounds of one point, from the phase law and the policy alone.

    With the queue never empty the phase chain does not depend on the
    queue, so a slot carries a packet only if it starts OFF, looks free,
    draws neither the idle nor the charge coin and sees no switch
    (Loynes' saturation argument, 1962).  Hence:

    * ``capacity``, c = (1 - beta)(1 - p_f)(1 - theta)(1 - xi) off_persist,
      bounds the carried packets per slot, so P_B >= 1 - c / rho at
      offered load rho;
    * ``lambda_sat`` = c / (n slot_d) is the per-node rate whose offered
      load is c; a drop limit max_drop < 1 fails at every rate above
      lambda_sat / (1 - max_drop);
    * ``interference_floor`` = beta (1 - p_d)(1 - theta) xi bounds P_I
      from below: a slot that starts ON interferes at least when it
      looks free and then charges, which an empty queue does too.
    """

    capacity: float
    lambda_sat: float
    interference_floor: float


def saturation(params: SystemParams) -> Saturation:
    """The saturation capacity, rate and interference floor of params."""
    beta = activity_factor(params.pnp)
    sensing, policy, traffic = params.sensing, params.policy, params.traffic
    capacity = ((1.0 - beta) * (1.0 - sensing.p_false_alarm) * (1.0 - policy.theta_idle)
                * (1.0 - policy.xi_charge) * slot_kernel(params.pnp, traffic.slot_d).off_persist)
    floor = beta * (1.0 - sensing.p_detect) * (1.0 - policy.theta_idle) * policy.xi_charge
    return Saturation(capacity, capacity / (traffic.n * traffic.slot_d), floor)


@dataclass(frozen=True)
class PowerRequirement:
    """Transmit power the AP needs for energy-neutral nodes.

    total is the unclamped sum over nodes of max(p_charge_min, dynamic
    requirement) weighted by (r / radius_scale) ** pathloss_exponent;
    clamped is min(p_max, total); feasible is total <= p_max.  A zero
    charging fraction makes total infinite and infeasible rather than
    raising.
    """

    total: float
    clamped: float
    per_node: float
    feasible: bool


def required_power(params: SystemParams, drop_prob: float) -> PowerRequirement:
    """Power budget check of point params at drop probability drop_prob.

    Each node must harvest, during the fraction of time the AP charges,
    the energy its effective packet stream spends: m * lam * (1 - P_B)
    divided by the nominal charging fraction (1 - beta)(1 - theta) xi,
    floored by the hardware minimum p_charge_min.
    """
    power = params.power
    denom = nominal_charge_fraction(params)
    if denom <= 0.0:
        dynamic = np.inf
    else:
        dynamic = power.energy_per_packet * params.traffic.lam * (1.0 - drop_prob) / denom
    per_node = max(power.p_charge_min, dynamic)
    total = per_node * power.path_loss_weight
    return PowerRequirement(total=total, clamped=min(power.p_max, total),
                            per_node=per_node, feasible=bool(total <= power.p_max))


@dataclass(frozen=True)
class QosReport:
    """One operating point, fully evaluated."""

    beta: float
    offered_load: float
    carried_load: float
    drop_prob: float
    wait_inverse_rate: float | None
    wait_slot_avg: float | None
    interference_prob: float
    charge_frac: float
    charge_frac_nominal: float
    power: PowerRequirement
    residual: float
    solver_method: str
    feasible: bool | None


@dataclass(frozen=True)
class Constraints:
    """QoS thresholds defining the sustainable region."""

    max_drop: float
    max_interference: float

    def __post_init__(self):
        for name in ("max_drop", "max_interference"):
            v = getattr(self, name)
            if not (_finite(v) and 0.0 <= v <= 1.0):
                raise InvalidParameterError(f"{name} must lie in [0, 1]")


def _reports(points: Sequence[SystemParams], chains: ChainStack, grid: np.ndarray,
             residual: Sequence[float], constraints: Constraints | None) -> list[QosReport]:
    """The full report of each point, from its built chain, stationary law and residual.

    This is the one place a stationary metric is formed.

    grid stacks the points' stationary grids from ``stationary_vectors``
    and chains their built chains.  Each sum adds a slice of one point's
    grid in state order, so each point gets the bits it gets alone; the
    only cells a slice adds are the excluded (0, phase, Serve) ones,
    zeros that change no sum.  The points are then taken in order, so a
    point that fails raises after the points before it have warned.

    P_B follows by flow balance, 1 - rho_c / rho at offered load rho; a
    carried load numerically above rho gives 0, warning past 1e-12 and
    raising ``MetricRangeError`` past 1e-9.  A law with no mass above
    the empty level (queued == 0, as the closed-level solve of every
    zero-load chain gives) has nothing to drop: P_B is 0 and both waits
    are None.  The flag is None without constraints.
    """
    levels = np.arange(chains.space.capacity_k + 1)
    carried = (chains.service_success
               * _running_sum(grid[:, 1:, Phase.OFF, Action.SERVE])).tolist()
    interfering = _running_sum(grid[:, :, Phase.ON, Action.SERVE:]).tolist()
    charging = _running_sum(grid[..., Action.CHARGE]).tolist()
    queued = _running_sum(levels[:, None, None] * grid).tolist()
    out = []
    for params, rho_c, p_i, charge, queue, res in zip(points, carried, interfering, charging,
                                                      queued, residual):
        rho_c = _clamp_probability(rho_c, "carried load")
        p_b = 0.0 if queue == 0.0 else 1.0 - rho_c / params.traffic.mean_arrivals_per_slot
        if p_b < 0.0:
            if p_b < -_RANGE_SLACK:
                raise MetricRangeError(f"drop probability {p_b} outside [0, 1]")
            # A few ulps below zero is routine float cancellation; only a
            # larger overshoot is worth flagging.
            if p_b < -1e-12:
                warnings.warn("carried load exceeds offered load numerically; clamping",
                              RuntimeWarning)
            p_b = 0.0
        p_i = _clamp_probability(p_i, "interference probability")
        pw = required_power(params, p_b)
        feasible = None
        if constraints is not None:
            feasible = bool(p_b <= constraints.max_drop
                            and p_i <= constraints.max_interference and pw.feasible)
        lam_agg = params.traffic.aggregate_rate
        lam_eff = lam_agg * (1.0 - p_b)
        w_inv = w_slot = None
        if queue != 0.0 and lam_eff > 0.0:
            w_inv = p_b / lam_eff + 1.0 / lam_agg
            w_slot = queue / lam_eff
        out.append(QosReport(
            beta=activity_factor(params.pnp), offered_load=params.traffic.mean_arrivals_per_slot,
            carried_load=rho_c, drop_prob=p_b, wait_inverse_rate=w_inv, wait_slot_avg=w_slot,
            interference_prob=p_i, charge_frac=_clamp_probability(charge, "charge fraction"),
            charge_frac_nominal=nominal_charge_fraction(params), power=pw, residual=res,
            solver_method=SOLVER_METHOD, feasible=feasible))
    return out


def qos_reports(points: Sequence[SystemParams], constraints: Constraints | None, *,
                synchronized: bool = False) -> list[QosReport]:
    """The report of each point, thresholds from constraints, as one stack.

    One stacked build, solve and metrics pass for all points, which
    share the capacity K; ``synchronized`` is as for ``build_chains``.
    Every report is the one the point gets alone.  So is every error: a
    stack whose build or solve fails is run again one point at a time,
    with the same flag, so that the first failing point in order
    raises, after the points before it have run (and warned).
    """
    try:
        chains = build_chains(points, synchronized=synchronized)
        grid, residual = stationary_vectors(chains)
    except (InvalidParameterError, NoConvergenceError):
        if len(points) == 1:
            raise
        return [qos_reports([p], constraints, synchronized=synchronized)[0] for p in points]
    return _reports(points, chains, grid, residual.tolist(), constraints)


def evaluate_qos(params: SystemParams, max_drop: float | None = None,
                 max_interference: float | None = None, *,
                 synchronized: bool = False) -> QosReport:
    """Every stationary metric of one point: ``qos_reports`` of the point alone.

    ``synchronized`` is as for ``build_transition_matrix``.  A point
    whose queue stays empty (zero load, or pmf(0) rounding to 1) reports
    a drop probability of 0 and both waiting times as None; a saturated
    point (P_B = 1) likewise reports None waits.  The feasibility flag
    is filled only when both constraint thresholds are supplied, and
    they are checked as ``Constraints`` checks them.

    The waits are those of an admitted packet, in seconds.  The
    inverse-rate wait composes the blocking and admission terms of the
    renewal argument, P_B / lam_eff + 1 / (n lam), algebraically
    1 / (n lam (1 - P_B)), where lam_eff = n lam (1 - P_B); the
    admission term is the mass of the normalized post-departure law,
    which is 1.  The slot-average wait applies Little's law to the mean slot-start queue
    length, sum_s queue(s) pi(s) / lam_eff.
    """
    if (max_drop is None) != (max_interference is None):
        raise InvalidParameterError("supply both constraint thresholds or neither")
    constraints = None if max_drop is None else Constraints(max_drop, max_interference)
    return qos_reports([params], constraints, synchronized=synchronized)[0]
