"""Stationary QoS, interference and charging-power metrics.

All metrics are functionals of the stationary law of the slot chain.
The carried load counts only serving slots that actually complete, a
blocked fraction follows by flow balance, the waits follow from P_B and
the mean queue length, and the power requirement converts the effective
packet throughput into the transmit budget the access point needs to
keep every node energy-neutral.  The post-departure queue law is
computed on its own by ``departure_distributions``; no report reads it.

The feasibility flag reads only the carried load, drop, interference and
power.  One pass computes those; ``evaluate_qos`` runs it before the
waits and charging fractions, and ``meets_constraints`` runs it alone,
so both give the same flag.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import (StateSpace, StationaryDistribution, TransitionMatrix,
                    build_transition_matrix, stationary_distribution)
from .errors import (DegenerateDistributionError, InvalidParameterError,
                     MetricRangeError, UndefinedLoadError, UndefinedWaitError)
from .params import PolicyModel, PowerModel, SystemParams, TrafficModel, activity_factor
from .slot import Action, Phase, SlotTransitionKernel, arrival_pmf

_RANGE_SLACK = 1e-9

KAPPA_VARIANTS = ("cumulative", "arrival-weighted")
WAIT_ESTIMATORS = ("inverse-rate", "slot-average")


def _clamp_probability(value: float, name: str) -> float:
    if value < -_RANGE_SLACK or value > 1.0 + _RANGE_SLACK:
        raise MetricRangeError(f"{name} = {value} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, value))


def _space(mu: StationaryDistribution) -> StateSpace:
    if mu.space is None:
        raise InvalidParameterError("distribution lacks a state space")
    return mu.space


def _running_sum(values: np.ndarray) -> float:
    """Sum of values in state order, added left to right.

    A running sum rather than numpy's pairwise one, so every metric has
    the bits of a plain loop over the states.  That matters because
    P_B = 1 - rho_c / rho turns a last-bit change of rho_c at light load
    into a change in the printed digits of P_B.
    """
    return float(np.cumsum(values)[-1])


def _serving_off(space: StateSpace) -> np.ndarray:
    """Mask of the serving OFF states, one per queue level 1..K in order."""
    return (space.phase == Phase.OFF) & (space.action == Action.SERVE)


def carried_load(mu: StationaryDistribution, kernel: SlotTransitionKernel,
                 service_success: float | None = None) -> float:
    """Fraction of slots that deliver a packet.

    A slot delivers iff the chain sits in a serving OFF state and the
    transmission completes, which happens with the whole-slot OFF
    persistence (or an overridden success probability for variant
    chains built with one).
    """
    succ = kernel.off_persist if service_success is None else float(service_success)
    total = _running_sum(mu.vector[_serving_off(_space(mu))])
    return _clamp_probability(succ * total, "carried load")


def packet_drop_probability(rho_c: float, traffic: TrafficModel) -> float:
    """Blocking probability from flow balance: P_B = 1 - rho_c / rho.

    rho is the offered load per slot, n * lam * slot_d.  Zero offered
    load raises; a carried load that numerically exceeds the offered
    load warns and clamps, anything outside [0, 1] by more than 1e-9 is
    a hard error.
    """
    rho = traffic.mean_arrivals_per_slot
    if rho == 0.0:
        raise UndefinedLoadError("drop probability undefined at zero offered load")
    p_b = 1.0 - rho_c / rho
    if p_b < 0.0:
        if p_b < -_RANGE_SLACK:
            raise MetricRangeError(f"drop probability {p_b} outside [0, 1]")
        # A few ulps below zero is routine float cancellation; only a
        # larger overshoot is worth flagging.
        if p_b < -1e-12:
            warnings.warn("carried load exceeds offered load numerically; clamping",
                          RuntimeWarning, stacklevel=2)
        return 0.0
    return _clamp_probability(p_b, "drop probability")


@dataclass(frozen=True)
class DepartureDistributions:
    """Queue laws seen at service completions.

    kappa holds the unnormalized weights of leaving i packets behind
    right after a departure, delta their normalization, gamma the law
    used for admitted packets (identical to delta here), and epsilon
    the full admitted-or-dropped split: epsilon[i] = (1 - P_B) *
    gamma[i] for i < K and epsilon[K] = P_B.
    """

    kappa: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    epsilon: np.ndarray
    variant: str


def departure_distributions(mu: StationaryDistribution, kernel: SlotTransitionKernel,
                            traffic: TrafficModel, variant: str = "cumulative",
                            service_success: float | None = None) -> DepartureDistributions:
    """Post-departure and admission queue laws.

    variant "cumulative" accumulates the serving-state masses up to each
    level; "arrival-weighted" additionally weights each serving state by
    the probability of the arrival count that lands the post-departure
    queue exactly at that level.
    """
    if variant not in KAPPA_VARIANTS:
        raise InvalidParameterError(f"unknown variant {variant!r}")
    succ = kernel.off_persist if service_success is None else float(service_success)
    serving = mu.vector[_serving_off(_space(mu))]
    k_cap = len(serving)
    # weight[i, j]: share of serving level j + 1 that leaves i behind,
    # i.e. after i - j arrivals.  Rows are summed left to right, as the
    # running sums elsewhere in this module are.
    lag = np.subtract.outer(np.arange(k_cap), np.arange(k_cap))
    weight = (lag >= 0).astype(float)
    if variant == "arrival-weighted":
        pmf = np.array([arrival_pmf(traffic, n) for n in range(k_cap)])
        weight *= pmf[np.maximum(lag, 0)]
    kappa = succ * np.cumsum(weight * serving, axis=1)[:, -1]

    norm = float(kappa.sum())
    if norm <= 0.0:
        raise DegenerateDistributionError("no departure mass; distributions undefined")
    delta = kappa / norm
    gamma = delta.copy()

    rho_c = carried_load(mu, kernel, service_success=succ)
    p_b = packet_drop_probability(rho_c, traffic)
    epsilon = np.empty(k_cap + 1)
    epsilon[:k_cap] = (1.0 - p_b) * gamma
    epsilon[k_cap] = p_b
    return DepartureDistributions(kappa=kappa, delta=delta, gamma=gamma,
                                  epsilon=epsilon, variant=variant)


def waiting_time(drop_prob: float, traffic: TrafficModel, estimator: str = "slot-average",
                 mu: StationaryDistribution | None = None) -> float:
    """Mean sojourn of an admitted packet, in seconds.

    "inverse-rate" composes the blocking and admission terms of the
    renewal argument, P_B / lam_eff + 1 / (n lam), algebraically
    1 / (n lam (1 - P_B)); the admission term is the mass of the
    normalized post-departure law, which is 1.  "slot-average" applies
    Little's law to the mean slot-start queue length and needs the
    stationary law.  Raises when the effective admission rate is zero.
    """
    if estimator not in WAIT_ESTIMATORS:
        raise InvalidParameterError(f"unknown estimator {estimator!r}")
    lam_agg = traffic.aggregate_rate
    lam_eff = lam_agg * (1.0 - drop_prob)
    if lam_eff <= 0.0:
        raise UndefinedWaitError("effective admission rate is zero")
    if estimator == "inverse-rate":
        return drop_prob / lam_eff + 1.0 / lam_agg
    if mu is None or mu.space is None:
        raise InvalidParameterError("slot-average estimator needs the stationary law")
    mean_queue = _running_sum(mu.space.queue * mu.vector)
    return mean_queue / lam_eff


def interference_probability(mu: StationaryDistribution) -> float:
    """Fraction of slots in which the AP transmits while the primary is ON."""
    space = _space(mu)
    transmitting = (space.phase == Phase.ON) & (space.action != Action.IDLE)
    return _clamp_probability(_running_sum(mu.vector[transmitting]), "interference probability")


def charge_fraction(mu: StationaryDistribution) -> float:
    """Stationary fraction of slots spent beaming power."""
    charging = _space(mu).action == Action.CHARGE
    return _clamp_probability(_running_sum(mu.vector[charging]), "charge fraction")


def nominal_charge_fraction(params: SystemParams) -> float:
    """Long-run charging fraction implied by the policy alone.

    The AP charges when the primary is OFF (probability 1 - beta in the
    time average), the idle coin passes and the charge coin hits.
    Sensing errors and queue dynamics perturb the realized fraction;
    this is the design value the power budget is sized with.
    """
    beta = activity_factor(params.pnp)
    return (1.0 - beta) * (1.0 - params.policy.theta_idle) * params.policy.xi_charge


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


def required_power(power: PowerModel, traffic: TrafficModel, policy: PolicyModel,
                   beta: float, drop_prob: float) -> PowerRequirement:
    """Power budget check for the given operating point.

    Each node must harvest, during the fraction of time the AP charges,
    the energy its effective packet stream spends: m * lam * (1 - P_B)
    divided by (1 - beta)(1 - theta) xi, floored by the hardware minimum
    p_charge_min.
    """
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameterError("beta must lie in [0, 1]")
    denom = (1.0 - beta) * (1.0 - policy.theta_idle) * policy.xi_charge
    if denom <= 0.0:
        dynamic = np.inf
    else:
        dynamic = power.energy_per_packet * traffic.lam * (1.0 - drop_prob) / denom
    per_node = max(power.p_charge_min, dynamic)
    scale = power.radius_scale
    weight = sum((r / scale) ** power.pathloss_exponent for r in power.node_radii)
    total = per_node * weight
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


class _ConstraintMetrics(NamedTuple):
    """The metrics the feasibility flag reads."""

    carried_load: float
    drop_prob: float
    interference_prob: float
    beta: float
    power: PowerRequirement
    feasible: bool | None


def _constraint_metrics(params: SystemParams, tm: TransitionMatrix,
                        mu: StationaryDistribution, max_drop: float | None,
                        max_interference: float | None) -> _ConstraintMetrics:
    """Carried load, P_B, interference and power, and the flag built from them.

    P_B is 0 at zero offered load (there is nothing to drop).  The flag
    is None unless both thresholds are supplied.
    """
    rho_c = carried_load(mu, tm.kernel, service_success=tm.service_success)
    if params.traffic.mean_arrivals_per_slot == 0.0:
        p_b = 0.0
    else:
        p_b = packet_drop_probability(rho_c, params.traffic)
    p_i = interference_probability(mu)
    beta = activity_factor(params.pnp)
    pw = required_power(params.power, params.traffic, params.policy, beta, p_b)
    feasible = None
    if max_drop is not None and max_interference is not None:
        feasible = bool(p_b <= max_drop and p_i <= max_interference and pw.feasible)
    return _ConstraintMetrics(rho_c, p_b, p_i, beta, pw, feasible)


def meets_constraints(params: SystemParams, max_drop: float, max_interference: float) -> bool:
    """``evaluate_qos(params, max_drop, max_interference).feasible``, computed lean.

    Builds and solves the same chain and runs the same constraint pass
    as evaluate_qos, but skips the waits and charging fractions the flag
    does not read.  Region searches probe with it.
    """
    tm = build_transition_matrix(params)
    mu = stationary_distribution(tm)
    return bool(_constraint_metrics(params, tm, mu, max_drop, max_interference).feasible)


def evaluate_qos(params: SystemParams, max_drop: float | None = None,
                 max_interference: float | None = None, *,
                 service_success: float | None = None) -> QosReport:
    """Build the chain, solve it, and evaluate every stationary metric.

    With zero offered load the drop probability is reported as 0 (there
    is nothing to drop) and both waiting times as None; a saturated
    point (P_B = 1) likewise reports None waits.  The feasibility flag
    is filled only when both constraint thresholds are supplied.
    """
    if (max_drop is None) != (max_interference is None):
        raise InvalidParameterError("supply both constraint thresholds or neither")
    tm = build_transition_matrix(params, service_success=service_success)
    mu = stationary_distribution(tm)
    core = _constraint_metrics(params, tm, mu, max_drop, max_interference)
    p_b = core.drop_prob

    w_inv: float | None
    w_slot: float | None
    try:
        w_inv = waiting_time(p_b, params.traffic, "inverse-rate")
        w_slot = waiting_time(p_b, params.traffic, "slot-average", mu=mu)
    except UndefinedWaitError:
        w_inv = w_slot = None

    return QosReport(beta=core.beta, offered_load=params.traffic.mean_arrivals_per_slot,
                     carried_load=core.carried_load, drop_prob=p_b,
                     wait_inverse_rate=w_inv, wait_slot_avg=w_slot,
                     interference_prob=core.interference_prob, charge_frac=charge_fraction(mu),
                     charge_frac_nominal=nominal_charge_fraction(params), power=core.power,
                     residual=mu.residual, solver_method=mu.method, feasible=core.feasible)
