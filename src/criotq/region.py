"""Sustainability-region mapping over primary activity and traffic rate.

An operating point is sustainable when the drop probability and the
interference probability stay under their thresholds and the required
transmit power fits the budget.  The searches below locate the largest
primary-activity factor (beta_c) or per-node rate (lambda_c) that keeps
a configuration sustainable, guarding the bisection with a coarse
feasibility pre-scan so a non-monotone surface cannot silently produce
a bogus bracket.

A search probe needs only the feasibility flag, so a probe builds and
solves the chains and stops at the constraint pass
(``metrics.constraint_flags``); the full ``QosReport`` is evaluated
once, at the value the search answers with.  The 32 pre-scan points do
not depend on each other, so they are built, solved and checked as one
stack; the bisection then probes one midpoint at a time.  Every flag is
the one the point gets alone, so the pre-scan grid, the bisection
midpoints and the answers are those of probing with
``feasibility_check`` point by point.  A lambda search's pre-scan ends
on the bracket end its doubling has already probed, and probes it again
within the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .metrics import QosReport, constraint_flags, evaluate_qos
from .params import PnpModel, SensingModel, SystemParams
from .slot import slot_kernel

#: Search bounds for the activity factor; open interval endpoints.
BETA_FLOOR = 1e-6
BETA_CEIL = 1.0 - 1e-6

_PRESCAN_POINTS = 32
_LAMBDA_DOUBLING_CAP = 20

#: Sweep axis -> the SensingModel field its grid drives.
_AXIS_FIELDS = {"detection": "p_detect", "false-alarm": "p_false_alarm"}
SWEEP_AXES = tuple(_AXIS_FIELDS)
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


def _largest_feasible(probe, lo: float, hi: float,
                      tol: float) -> tuple[float | None, bool, bool]:
    """Largest x in [lo, hi] with a true flag, assuming a feasible prefix.

    probe(xs) gives the flag of each x in the list xs.  Returns (value,
    monotone, capped).  Pre-scans a coarse grid first, in one probe call:
    an infeasible floor short-circuits to None, an all-feasible scan
    returns hi (capped), and a scan whose feasibility flips back on after
    turning off is flagged non-monotone and answered with the last
    prefix-feasible grid point instead of a bisection that would be
    meaningless.  Each bisection step probes its one midpoint.
    """
    xs = [float(x) for x in np.linspace(lo, hi, _PRESCAN_POINTS)]
    flags = probe(xs)
    if not flags[0]:
        return None, True, False
    if all(flags):
        return xs[-1], True, True
    first_bad = flags.index(False)
    a, b = xs[first_bad - 1], xs[first_bad]
    monotone = not any(flags[first_bad:])
    while monotone and b - a > tol:
        mid = 0.5 * (a + b)
        if probe([mid])[0]:
            a = mid
        else:
            b = mid
    return a, monotone, False


def _prober(at, constraints: Constraints):
    """probe(xs): the flag of each operating point at(x), the list probed as one stack."""
    def probe(xs: list[float]) -> list[bool]:
        return constraint_flags([at(x) for x in xs], constraints.max_drop,
                                constraints.max_interference)
    return probe


def _critical_result(at, constraints: Constraints, value: float | None,
                     monotone: bool = True, capped: bool = False) -> CriticalResult:
    """The answer of a search, with the one full report it carries.

    at(x) gives the operating point of search value x; the report is
    evaluate_qos there, the only full evaluation a search makes.
    """
    if value is None:
        return CriticalResult(value=None, feasible_at_floor=False, monotone=True,
                              capped=False, report=None)
    report = evaluate_qos(at(value), constraints.max_drop, constraints.max_interference)
    return CriticalResult(value=value, feasible_at_floor=True, monotone=monotone,
                          capped=capped, report=report)


def critical_beta(params: SystemParams, constraints: Constraints,
                  tol: float = 1e-3) -> CriticalResult:
    """Largest sustainable activity factor, to absolute tolerance tol."""
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")

    def at(beta: float) -> SystemParams:
        return params_with_activity(params, beta)

    return _critical_result(at, constraints,
                            *_largest_feasible(_prober(at, constraints), BETA_FLOOR,
                                               BETA_CEIL, tol))


def critical_lambda(params: SystemParams, constraints: Constraints,
                    tol: float = 1e-3) -> CriticalResult:
    """Largest sustainable per-node packet rate, to absolute tolerance tol.

    The upper bracket starts at the configured rate (or 1 packet per
    node-slot when that is zero) and doubles until infeasible, capped at
    2**20 times the start; a still-feasible cap is returned as capped.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")

    def at(lam: float) -> SystemParams:
        return replace(params, traffic=replace(params.traffic, lam=lam))

    probe = _prober(at, constraints)
    lam0 = params.traffic.lam
    if lam0 <= 0:
        lam0 = 1.0 / (params.traffic.n * params.traffic.slot_d)
    hi = lam0
    doublings = 0
    while probe([hi])[0]:
        if doublings >= _LAMBDA_DOUBLING_CAP:
            return _critical_result(at, constraints, hi, capped=True)
        hi *= 2.0
        doublings += 1
    return _critical_result(at, constraints, *_largest_feasible(probe, 0.0, hi, tol))


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a region sweep: the swept value and its search result."""

    swept_value: float
    result: CriticalResult


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
    field = _AXIS_FIELDS[axis]
    search = critical_beta if target == "beta_c" else critical_lambda
    rows = []
    for v in values:
        at = replace(params, sensing=replace(params.sensing, **{field: v}))
        rows.append(SweepRow(swept_value=v, result=search(at, constraints, tol)))
    return rows


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
