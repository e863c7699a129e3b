"""Sustainability-region mapping over primary activity and traffic rate.

An operating point is sustainable when the drop probability and the
interference probability stay under their thresholds and the required
transmit power fits the budget.  The searches below locate the largest
primary-activity factor (beta_c) or per-node rate (lambda_c) that keeps
a configuration sustainable, guarding the bisection with a coarse
feasibility pre-scan so a non-monotone surface cannot silently produce
a bogus bracket.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .metrics import QosReport, evaluate_qos
from .params import PnpModel, SensingModel, SystemParams
from .slot import slot_kernel

#: Search bounds for the activity factor; open interval endpoints.
BETA_FLOOR = 1e-6
BETA_CEIL = 1.0 - 1e-6

_PRESCAN_POINTS = 32
_LAMBDA_DOUBLING_CAP = 20

SWEEP_AXES = ("detection", "false-alarm")
SWEEP_TARGETS = ("beta_c", "lambda_c")


@dataclass(frozen=True)
class Constraints:
    """QoS thresholds defining the sustainable region."""

    max_drop: float
    max_interference: float

    def __post_init__(self):
        for name in ("max_drop", "max_interference"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise InvalidParameterError(f"{name} must lie in [0, 1]")


def feasibility_check(params: SystemParams, constraints: Constraints) -> tuple[bool, QosReport]:
    """Evaluate one operating point against the constraints."""
    report = evaluate_qos(params, constraints.max_drop, constraints.max_interference)
    return bool(report.feasible), report


def params_with_activity(params: SystemParams, beta: float) -> SystemParams:
    """Reparameterize so the activity factor equals beta.

    mu_on is held fixed and mu_off scaled to beta / (1 - beta) times it,
    keeping the mean busy period invariant while the primary's duty
    cycle moves.
    """
    if not (BETA_FLOOR <= beta <= BETA_CEIL):
        raise InvalidParameterError(f"beta must lie in [{BETA_FLOOR}, {BETA_CEIL}]")
    mu_on = params.pnp.mu_on
    return replace(params, pnp=PnpModel(mu_on=mu_on, mu_off=mu_on * beta / (1.0 - beta)))


@dataclass(frozen=True)
class CriticalResult:
    """Outcome of a critical-value search.

    value is None when the floor of the search range is already
    infeasible.  monotone reports whether the feasibility pre-scan was
    a clean feasible-prefix pattern; when it is not, value is the
    conservative largest prefix-feasible grid point.  capped flags a
    search that never found an infeasible upper bound.
    """

    value: float | None
    feasible_at_floor: bool
    monotone: bool
    capped: bool
    report: QosReport | None


def _largest_feasible(probe, lo: float, hi: float, tol: float) -> CriticalResult:
    """Largest x in [lo, hi] with a feasible probe, assuming a feasible prefix.

    probe(x) returns (ok, report), and the result carries the report of
    the value it answers with, so the answer is never evaluated twice.

    Pre-scans a coarse grid first: an infeasible floor short-circuits to
    None, an all-feasible scan returns hi (capped), and a scan whose
    feasibility flips back on after turning off is flagged non-monotone
    and answered with the last prefix-feasible grid point instead of a
    bisection that would be meaningless.
    """
    xs = [float(x) for x in np.linspace(lo, hi, _PRESCAN_POINTS)]
    scan = [probe(x) for x in xs]
    flags = [ok for ok, _ in scan]
    if not flags[0]:
        return CriticalResult(value=None, feasible_at_floor=False, monotone=True,
                              capped=False, report=None)
    if all(flags):
        return CriticalResult(value=xs[-1], feasible_at_floor=True, monotone=True,
                              capped=True, report=scan[-1][1])
    first_bad = flags.index(False)
    a, b, report = xs[first_bad - 1], xs[first_bad], scan[first_bad - 1][1]
    monotone = not any(flags[first_bad:])
    while monotone and b - a > tol:
        mid = 0.5 * (a + b)
        ok, mid_report = probe(mid)
        if ok:
            a, report = mid, mid_report
        else:
            b = mid
    return CriticalResult(value=a, feasible_at_floor=True, monotone=monotone,
                          capped=False, report=report)


def critical_beta(params: SystemParams, constraints: Constraints,
                  tol: float = 1e-3) -> CriticalResult:
    """Largest sustainable activity factor, to absolute tolerance tol."""
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")

    def probe(beta: float) -> tuple[bool, QosReport]:
        return feasibility_check(params_with_activity(params, beta), constraints)

    return _largest_feasible(probe, BETA_FLOOR, BETA_CEIL, tol)


def critical_lambda(params: SystemParams, constraints: Constraints,
                    tol: float = 1e-3) -> CriticalResult:
    """Largest sustainable per-node packet rate, to absolute tolerance tol.

    The upper bracket starts at the configured rate (or 1 packet per
    node-slot when that is zero) and doubles until infeasible, capped at
    2**20 times the start; a still-feasible cap is returned as capped.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")

    # Memoized: the pre-scan ends on the infeasible bracket end that the
    # doubling has already probed.
    @functools.cache
    def probe(lam: float) -> tuple[bool, QosReport]:
        return feasibility_check(replace(params, traffic=replace(params.traffic, lam=lam)),
                                 constraints)

    lam0 = params.traffic.lam
    if lam0 <= 0:
        lam0 = 1.0 / (params.traffic.n * params.traffic.slot_d)
    hi = lam0
    doublings = 0
    while (probed := probe(hi))[0]:
        if doublings >= _LAMBDA_DOUBLING_CAP:
            return CriticalResult(value=hi, feasible_at_floor=True, monotone=True,
                                  capped=True, report=probed[1])
        hi *= 2.0
        doublings += 1
    return _largest_feasible(probe, 0.0, hi, tol)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a region sweep."""

    swept_value: float
    critical_value: float | None
    feasible_at_zero: bool
    monotone: bool
    capped: bool
    report: QosReport | None


def sweep(params: SystemParams, constraints: Constraints, axis: str,
          grid, target: str, tol: float = 1e-3) -> list[SweepRow]:
    """Critical-value curve along a sensing-quality axis.

    axis selects which sensing probability the grid drives ("detection"
    or "false-alarm"); target picks the critical quantity.  Grid points
    are searched one after another and rows come back in the caller's
    grid order.
    """
    if axis not in SWEEP_AXES:
        raise InvalidParameterError(f"axis must be one of {SWEEP_AXES}")
    if target not in SWEEP_TARGETS:
        raise InvalidParameterError(f"target must be one of {SWEEP_TARGETS}")
    values = [float(v) for v in grid]
    if not values:
        raise InvalidParameterError("grid must be nonempty")

    def one(v: float) -> SweepRow:
        if axis == "detection":
            sensing = SensingModel(p_detect=v, p_false_alarm=params.sensing.p_false_alarm)
        else:
            sensing = SensingModel(p_detect=params.sensing.p_detect, p_false_alarm=v)
        p2 = replace(params, sensing=sensing)
        if target == "beta_c":
            cr = critical_beta(p2, constraints, tol)
        else:
            cr = critical_lambda(p2, constraints, tol)
        return SweepRow(swept_value=v, critical_value=cr.value,
                        feasible_at_zero=cr.feasible_at_floor, monotone=cr.monotone,
                        capped=cr.capped, report=cr.report)

    return [one(v) for v in values]


def synchronized_baseline(params: SystemParams) -> QosReport:
    """Reference cell whose transmissions fit the OFF periods exactly.

    Built from the same chain with the serving-slot success probability
    replaced by the full OFF-to-OFF endpoint mass (no mid-slot
    interruptions) and sensing made perfect, so it never collides and
    never idles on a false alarm.  Its waiting time lower-bounds the
    opportunistic cell's.
    """
    p2 = replace(params, sensing=SensingModel(p_detect=1.0, p_false_alarm=0.0))
    kernel = slot_kernel(p2.pnp, p2.traffic.slot_d)
    return evaluate_qos(p2, service_success=kernel.a00)


def optimize_policy_grid(params: SystemParams, constraints: Constraints,
                         theta_grid, xi_grid):
    """Grid argmax over the policy pair (theta_idle, xi_charge).

    Returns (best_pair_or_None, table) where the table holds one
    (theta, xi, feasible, report) tuple per grid point and the best pair
    minimizes the slot-average waiting time among feasible points,
    breaking ties by lower interference.
    """
    best_key = None
    best_pair = None
    table = []
    for th in theta_grid:
        for x in xi_grid:
            p2 = replace(params, policy=replace(params.policy, theta_idle=float(th),
                                                xi_charge=float(x)))
            ok, rep = feasibility_check(p2, constraints)
            table.append((float(th), float(x), ok, rep))
            if ok and rep.wait_slot_avg is not None:
                key = (rep.wait_slot_avg, rep.interference_prob)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (float(th), float(x))
    return best_pair, table
