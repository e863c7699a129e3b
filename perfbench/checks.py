"""Output checks behind the benchmark's failure count.

Each check returns a list of problems; an empty list means the output is
correct.  The checks use identities the model guarantees, not recorded
values, so they hold on every seed.
"""

from __future__ import annotations

import math
from dataclasses import replace

import criotq

RESIDUAL_MAX = 1e-10
IDENTITY_RTOL = 1e-9
#: Half-width of the simulator band in standard errors.  The batch-means SE
#: has 31 degrees of freedom (32 batches); P(|t_31| > 8) is about 5e-9, so a
#: correct program fails this band with negligible probability.
SIM_BAND_Z = 8.0


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_qos(report: criotq.QosReport, params: criotq.SystemParams,
              constraints: criotq.Constraints | None = None) -> list[str]:
    """Solver residual, probability ranges and load identities of one report."""
    errs = []
    if not (math.isfinite(report.residual) and report.residual <= RESIDUAL_MAX):
        errs.append(f"solver residual {report.residual} > {RESIDUAL_MAX}")
    for name in ("carried_load", "drop_prob", "interference_prob", "charge_frac"):
        v = getattr(report, name)
        if not 0.0 <= v <= 1.0:
            errs.append(f"{name}={v} outside [0, 1]")
    tr = params.traffic
    if not _close(report.offered_load, tr.n * tr.lam * tr.slot_d, 1e-12):
        errs.append(f"offered_load={report.offered_load} != n*lam*slot_d")
    if report.carried_load > report.offered_load * (1.0 + IDENTITY_RTOL):
        errs.append(f"carried {report.carried_load} > offered {report.offered_load}")
    if report.carried_load > 0.0:
        w_ref = tr.slot_d / report.carried_load
        if report.wait_inverse_rate is None or not _close(report.wait_inverse_rate, w_ref,
                                                          IDENTITY_RTOL):
            errs.append(f"w_inverse_rate={report.wait_inverse_rate} != slot_d/carried={w_ref}")
    if constraints is not None:
        expect = (report.drop_prob <= constraints.max_drop
                  and report.interference_prob <= constraints.max_interference
                  and report.power.feasible)
        if report.feasible is not expect:
            errs.append(f"feasible={report.feasible} but the constraints say {expect}")
    return errs


def probe_params(kind: str, params: criotq.SystemParams, x: float) -> criotq.SystemParams:
    """The operating point a critical_beta / critical_lambda search probes at x."""
    if kind == "beta":
        return criotq.params_with_activity(params, x)
    return replace(params, traffic=replace(params.traffic, lam=x))


def check_critical(kind: str, params: criotq.SystemParams, constraints: criotq.Constraints,
                   tol: float, result: criotq.CriticalResult) -> list[str]:
    """A critical value exists, its report is feasible, and so is the probe below it."""
    if result.value is None or result.report is None:
        return [f"critical_{kind} returned no value (feasible_at_floor={result.feasible_at_floor})"]
    x = result.value
    at = probe_params(kind, params, x)
    errs = check_qos(result.report, at, constraints)
    if result.report.feasible is not True:
        errs.append(f"report at critical {kind}={x} is not feasible")
    if kind == "beta" and not _close(result.report.beta, x, 1e-9):
        errs.append(f"report beta {result.report.beta} != critical value {x}")
    floor = criotq.BETA_FLOOR if kind == "beta" else 0.0
    below = max(floor, x - tol)
    if not criotq.feasibility_check(probe_params(kind, params, below), constraints)[0]:
        errs.append(f"probe just below the critical {kind}, at {below}, is infeasible")
    return errs


def check_sim(sim: criotq.SimResult, chain: criotq.QosReport) -> list[str]:
    """Count identities, and p_i_hat / carried_load_hat inside the chain's band.

    The carried-load band follows from the window's flow balance:
    carried_hat = g (1 - P_B_hat) - dQ/S with g = generated/S, |dQ| <= K
    per replication, so carried_hat - rho_c = (g - rho)(1 - P_B_hat)
    - rho (P_B_hat - P_B) - dQ/S.  The arrival count is exactly Poisson
    (SE sqrt(rho/S)) and P_B_hat carries its batch-means SE.
    """
    errs = []
    c = sim.counts
    if min(c) < 0 or c.admitted != c.generated - c.dropped or c.served > c.admitted:
        errs.append(f"count identities violated: {c}")
    k_cap = sim.space.capacity_k
    slots = (sim.horizon_slots - sim.warmup_slots) * sim.replications
    served_slots = round(sim.carried_load_hat * slots)
    if abs(served_slots - c.admitted) > k_cap * sim.replications:
        errs.append(f"served slots {served_slots} and admitted {c.admitted} differ by more "
                    f"than the buffer")
    if not abs(sim.interference_hat - chain.interference_prob) <= SIM_BAND_Z * sim.interference_se:
        errs.append(f"p_i_hat={sim.interference_hat} (se {sim.interference_se}) vs chain "
                    f"{chain.interference_prob}")
    rho = chain.offered_load
    band = (SIM_BAND_Z * (math.sqrt(rho / slots) + rho * sim.drop_prob_se)
            + k_cap * sim.replications / slots)
    if not abs(sim.carried_load_hat - chain.carried_load) <= band:
        errs.append(f"carried_load_hat={sim.carried_load_hat} vs chain {chain.carried_load} "
                    f"(band {band})")
    return errs
