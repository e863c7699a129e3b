"""Sustainability-region mapping over primary activity and traffic rate.

An operating point is sustainable when the drop probability and the
interference probability stay under their thresholds and the required
transmit power fits the budget.  The searches below locate the largest
primary-activity factor (beta_c) or per-node rate (lambda_c) that keeps
a configuration sustainable, guarding the bisection with a coarse
feasibility pre-scan so a non-monotone surface cannot silently produce
a bogus bracket.

A probe builds and solves the chains of its points and returns their
full ``QosReport``s (``metrics.qos_reports``), and a search answers
with the report of the point it chose, as probed: no report is
evaluated again.

A probe skips a point whose drop or interference floor from
``metrics.saturation`` passes its limit by more than 1e-9 (``_ruled_out``)
and gives None for it, which the searches take as infeasible.  The
margin keeps every point whose floor lies within rounding of its limit
on the solved path, so each search answers as when every point is
solved.  A skipped point is never built or solved, so it cannot raise
or warn; a probe whose points are all skipped makes no call.

Every probe is a stack, which costs far less than its points one at a
time: the 32 pre-scan points, a bisection midpoint with the next level's
midpoints still reachable under tol, or three doubling steps.  Each
report is the one the point gets alone, so the grid, the midpoints and
the answers are those of probing with ``feasibility_check`` point by
point.  So are the errors, by the one replay rule: a stack fails as a
whole (``metrics.qos_reports``), and a probe whose stack raises is
probed again one point at a time over the points the search needs, so
that the first failing needed point raises its own error.  The pre-scan
needs every point; a bisection or doubling stack needs only its first,
the rest being speculative.  Only the warnings can differ: a speculative
point can emit a metrics RuntimeWarning the one-point search never
emits, a replayed point emits its warnings again, and a skipped point
emits none.  A lambda search's pre-scan ends on the bracket end its
doubling has already probed, and probes it again within the stack
unless it is skipped.

One table, ``_AXES``, forms every point a search probes or a sweep
visits from its value on an axis: activity, lambda, detection or
false-alarm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CriotqError, InvalidParameterError
from .metrics import Constraints, QosReport, evaluate_qos, qos_reports, saturation
from .params import PnpModel, SensingModel, SystemParams, TrafficModel, _finite

#: Search bounds for the activity factor; open interval endpoints.
BETA_FLOOR = 1e-6
BETA_CEIL = 1.0 - 1e-6

_PRESCAN_POINTS = 32
_BISECTION_LEVELS = 2
_DOUBLING_STEPS = 3
_LAMBDA_DOUBLING_CAP = 20
#: How far a chain-free floor must pass its limit before a probe skips the point.
_FLOOR_MARGIN = 1e-9

SWEEP_AXES = ("detection", "false-alarm")
SWEEP_TARGETS = ("beta_c", "lambda_c")


def feasibility_check(params: SystemParams, constraints: Constraints) -> tuple[bool, QosReport]:
    """Evaluate one operating point against the constraints: ``qos_reports`` of the point."""
    report = qos_reports([params], constraints)[0]
    return report.feasible, report


def params_with_activity(params: SystemParams, beta: float) -> SystemParams:
    """Reparameterize so the activity factor equals beta.

    mu_on is held fixed and mu_off scaled to beta / (1 - beta) times it,
    keeping the mean busy period invariant while the primary's duty
    cycle moves.
    """
    if not (BETA_FLOOR <= beta <= BETA_CEIL):
        raise InvalidParameterError(f"beta must lie in [{BETA_FLOOR}, {BETA_CEIL}]")
    mu_on = params.pnp.mu_on
    return SystemParams(PnpModel(mu_on, mu_on * beta / (1.0 - beta)), params.traffic,
                        params.sensing, params.policy, params.power)


def _with_lambda(p: SystemParams, lam: float) -> SystemParams:
    t = p.traffic
    return SystemParams(p.pnp, TrafficModel(t.n, lam, t.capacity_k, t.slot_d), p.sensing,
                        p.policy, p.power)


#: Axis -> (params, v) -> the operating point at value v of the axis.  Each
#: record is built by its constructor, which validates it as replace() does.
_AXES = {
    "activity": params_with_activity,
    "lambda": _with_lambda,
    "detection": lambda p, v: SystemParams(p.pnp, p.traffic,
                                           SensingModel(v, p.sensing.p_false_alarm),
                                           p.policy, p.power),
    "false-alarm": lambda p, v: SystemParams(p.pnp, p.traffic,
                                             SensingModel(p.sensing.p_detect, v),
                                             p.policy, p.power),
}


@dataclass(frozen=True)
class CriticalResult:
    """Outcome of a critical-value search.

    value is None when the floor of the search range is already
    infeasible.  monotone reports whether the feasibility pre-scan was
    a clean feasible-prefix pattern; when it is not, value is the
    conservative largest prefix-feasible grid point.  capped flags a
    search that never found an infeasible upper bound.  report is the
    report of the point at value, as its probe returned it.
    """

    value: float | None
    feasible_at_floor: bool
    monotone: bool
    capped: bool
    report: QosReport | None


def _feasible(report: QosReport | None) -> bool:
    """A probed point's flag; a skipped point (None) is infeasible."""
    return report is not None and report.feasible


def _midpoints(a: float, b: float, tol: float, levels: int) -> list[float]:
    """The midpoints the bisection of [a, b] can probe in its next levels steps."""
    mid = 0.5 * (a + b)
    if levels == 0 or not (b - a > tol and a < mid < b):
        return []
    return [mid, *_midpoints(a, mid, tol, levels - 1), *_midpoints(mid, b, tol, levels - 1)]


def _largest_feasible(probe, lo: float, hi: float, tol: float) -> CriticalResult:
    """Largest x in [lo, hi] with a feasible report, assuming a feasible prefix.

    probe(xs, needed) gives the report of each x in the list xs, or None
    for a point a chain-free floor rules out: that point counts as
    infeasible, and it was never built or solved, so it cannot have
    raised or warned.  A stack that raises gives the reports of
    xs[:needed] alone, or the error of the first of them that fails.
    Pre-scans a coarse grid first, in one probe call: an infeasible floor
    short-circuits to None, an all-feasible scan returns hi (capped), and
    a scan whose feasibility flips back on after turning off is flagged
    non-monotone and answered with the last prefix-feasible grid point
    instead of a bisection that would be meaningless.  Each probe takes
    _BISECTION_LEVELS bisection levels, down to tol or to adjacent
    floats.  The result carries the report of the grid point or midpoint
    it answers with, as probed.
    """
    xs = [float(x) for x in np.linspace(lo, hi, _PRESCAN_POINTS)]
    scan = probe(xs)
    flags = [_feasible(r) for r in scan]
    if not flags[0]:
        return CriticalResult(value=None, feasible_at_floor=False, monotone=True,
                              capped=False, report=None)
    if all(flags):
        return CriticalResult(value=xs[-1], feasible_at_floor=True, monotone=True,
                              capped=True, report=scan[-1])
    first_bad = flags.index(False)
    a, b, report = xs[first_bad - 1], xs[first_bad], scan[first_bad - 1]
    monotone = not any(flags[first_bad:])
    ahead: dict[float, QosReport | None] = {}
    while monotone and b - a > tol and a < (mid := 0.5 * (a + b)) < b:
        if mid not in ahead:
            mids = _midpoints(a, b, tol, _BISECTION_LEVELS)
            ahead.update(zip(mids, probe(mids, needed=1)))
        mid_report = ahead[mid]
        if _feasible(mid_report):
            a, report = mid, mid_report
        else:
            b = mid
    return CriticalResult(value=a, feasible_at_floor=True, monotone=monotone,
                          capped=False, report=report)


def _ruled_out(point: SystemParams, constraints: Constraints) -> bool:
    """Whether a chain-free floor of point passes its limit by more than _FLOOR_MARGIN.

    The floors are P_B >= 1 - c / rho at capacity c and offered load rho,
    and the interference floor of ``saturation``.  The drop floor applies
    only to a chain that admits arrivals: one whose pmf(0) rounds to 1 is
    solved on its empty level and reports P_B = 0.  TrafficModel keeps rho finite.
    """
    rho = point.traffic.mean_arrivals_per_slot
    sat = saturation(point)
    return (sat.interference_floor > constraints.max_interference + _FLOOR_MARGIN
            or (math.exp(-rho) < 1.0
                and 1.0 - sat.capacity / rho > constraints.max_drop + _FLOOR_MARGIN))


def _prober(params: SystemParams, axis: str, constraints: Constraints, tol: float):
    """probe(xs, needed): the reports of the points at xs on axis, as one stack.

    A point _ruled_out gets None and stays out of the stack.  This is
    the one replay of a failing stack: when forming, screening or
    reporting the points raises, the probe gives the reports of
    xs[:needed] (every point when needed is None), each probed alone,
    so that the first of them that fails raises its own error after the
    points before it have run.  tol is checked here.
    """
    if not (_finite(tol) and tol > 0):
        raise InvalidParameterError("tol must be finite and positive")
    at = _AXES[axis]
    def probe(xs: list[float], needed: int | None = None) -> list[QosReport | None]:
        try:
            points = [at(params, x) for x in xs]
            skipped = [_ruled_out(p, constraints) for p in points]
            kept = [p for p, skip in zip(points, skipped) if not skip]
            reports = iter(qos_reports(kept, constraints) if kept else [])
        except CriotqError:
            if len(xs) == 1:
                raise
            return [report for x in xs[:needed] for report in probe([x])]
        return [None if skip else next(reports) for skip in skipped]
    return probe


def critical_beta(params: SystemParams, constraints: Constraints,
                  tol: float = 1e-3) -> CriticalResult:
    """Largest sustainable activity factor, to absolute tolerance tol."""
    probe = _prober(params, "activity", constraints, tol)
    return _largest_feasible(probe, BETA_FLOOR, BETA_CEIL, tol)


def critical_lambda(params: SystemParams, constraints: Constraints,
                    tol: float = 1e-3) -> CriticalResult:
    """Largest sustainable per-node packet rate, to absolute tolerance tol.

    The upper bracket starts at the configured rate (or 1 packet per
    node-slot when that is zero) and walks the ends lam0 * 2**j up to
    j = _LAMBDA_DOUBLING_CAP until one is infeasible, _DOUBLING_STEPS
    per probe; a still-feasible cap is returned as capped.
    """
    probe = _prober(params, "lambda", constraints, tol)
    lam0 = params.traffic.lam
    if lam0 <= 0:
        lam0 = 1.0 / (params.traffic.n * params.traffic.slot_d)
    ends = [lam0 * 2.0 ** j for j in range(_LAMBDA_DOUBLING_CAP + 1)]
    while ends:
        reports = probe(ends[:_DOUBLING_STEPS], needed=1)
        for hi, report in zip(ends, reports):
            if not _feasible(report):
                return _largest_feasible(probe, 0.0, hi, tol)
        ends = ends[len(reports):]
    # Every end up to the cap is feasible: hi is the cap, report its report.
    return CriticalResult(value=hi, feasible_at_floor=True, monotone=True, capped=True,
                          report=report)


def sweep(params: SystemParams, constraints: Constraints, axis: str,
          grid, target: str, tol: float = 1e-3) -> list[CriticalResult]:
    """Critical-value curve along a sensing-quality axis.

    axis selects which sensing probability the grid drives ("detection"
    or "false-alarm"); target picks the critical quantity.  Grid points
    are searched one after another: one CriticalResult per grid value,
    in the caller's grid order.
    """
    if axis not in SWEEP_AXES:
        raise InvalidParameterError(f"axis must be one of {SWEEP_AXES}")
    if target not in SWEEP_TARGETS:
        raise InvalidParameterError(f"target must be one of {SWEEP_TARGETS}")
    values = [float(v) for v in grid]
    if not values:
        raise InvalidParameterError("grid must be nonempty")
    search = critical_beta if target == "beta_c" else critical_lambda
    return [search(_AXES[axis](params, v), constraints, tol) for v in values]


def synchronized_baseline(params: SystemParams) -> QosReport:
    """Reference cell whose transmissions fit the OFF periods exactly.

    Built from the same chain, synchronized so that the serving-slot
    success probability is the full OFF-to-OFF endpoint mass a00 (no
    mid-slot interruptions), and with sensing made perfect, so it never
    collides and never idles on a false alarm.  Its waiting time
    lower-bounds the opportunistic cell's.
    """
    p2 = replace(params, sensing=SensingModel(p_detect=1.0, p_false_alarm=0.0))
    return evaluate_qos(p2, synchronized=True)

