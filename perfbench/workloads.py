"""Seeded workloads of the criotq benchmark.

Each workload turns a seed into an endless, deterministic stream of
rounds.  A round is a list of op inputs, one per stratum of input size or
kind, in a fixed stratum order; the seed only moves values inside each
stratum.  The timed loop runs whole rounds, so every run sees the same mix
whatever the seed, and the runner can take each stratum's median over the
rounds of a run.  The program receives nothing but the generated
``SystemParams`` (and constraints, tolerances and simulator settings);
``CRIOTQ_WORKERS`` is never read here, so the thread-pool paths stay off.

Functions of criotq are looked up as ``criotq.<name>`` at call time, so that
the tracer, which rebinds module attributes, sees every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import criotq

import checks

MAX_DROP = 0.1
MAX_INTERFERENCE = 0.1
N_NODES = 20


def cell(capacity_k: int, lam: float, *, p_detect: float = 0.9, p_false_alarm: float = 0.1,
         theta: float = 0.2, xi: float = 0.5, beta: float = 0.5) -> criotq.SystemParams:
    """The repository's default cell (configs/default.json) with the given knobs."""
    radii = tuple(1000.0 * math.sqrt((k + 0.5) / N_NODES) for k in range(N_NODES))
    params = criotq.SystemParams(
        pnp=criotq.PnpModel(mu_on=1.0, mu_off=1.0),
        traffic=criotq.TrafficModel(n=N_NODES, lam=lam, capacity_k=capacity_k, slot_d=1.0),
        sensing=criotq.SensingModel(p_detect=p_detect, p_false_alarm=p_false_alarm),
        policy=criotq.PolicyModel(theta_idle=theta, xi_charge=xi),
        power=criotq.PowerModel(p_charge_min=50e-6, p_max=10.0, energy_per_packet=400e-6,
                                pathloss_exponent=2.0, node_radii=radii,
                                charging_radius=1000.0))
    return criotq.params_with_activity(params, beta)


def _log_uniform(rng: random.Random, lo: float, hi: float, stratum: int, strata: int) -> float:
    """Log-uniform draw inside stratum ``stratum`` of ``strata`` equal log-width bins."""
    width = (math.log(hi) - math.log(lo)) / strata
    return math.exp(math.log(lo) + width * (stratum + rng.random()))


def _sensing_policy(rng: random.Random) -> dict:
    return dict(p_detect=rng.uniform(0.8, 1.0), p_false_alarm=rng.uniform(0.0, 0.3),
                theta=rng.uniform(0.0, 0.4), xi=rng.uniform(0.2, 0.7))


@dataclass(frozen=True)
class Workload:
    """A named op stream plus the call and the output check of one op."""

    name: str
    why: str
    rounds: Callable[[int], Iterator[list]]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    #: Ops in a traced run, from the start of the first round: a fixed number,
    #: so per-layer counts repeat.
    trace_ops: int


# --- qos-large-k -----------------------------------------------------------
# Not listed in BENCHMARK.json yet: light-load points can send the stationary
# solve into its power-iteration fallback, which runs for minutes at large K
# (see README.md).

K_LADDER = (100, 200, 300, 400)
#: Light, moderate, heavy and saturated load; each op's rate is drawn within
#: 0.1 decade of its level, so that the op times, and with them the median
#: op, move little from seed to seed.
QOS_LOADS = (5e-4, 2.3e-3, 1.1e-2, 5e-2)


@dataclass(frozen=True)
class QosInput:
    params: criotq.SystemParams


def qos_rounds(seed: int) -> Iterator[list[QosInput]]:
    # A round pairs every K of the ladder with every load level, light to
    # saturated (the load moves the matrix density from 20% to 35% at
    # K=400), in the rows of a Latin square: each run of four ops covers
    # every K and every load level once.
    rng = random.Random(seed)
    n = len(K_LADDER)
    while True:
        yield [QosInput(cell(k, QOS_LOADS[(i + row) % n] * 10 ** rng.uniform(-0.1, 0.1),
                             beta=rng.uniform(0.1, 0.9), **_sensing_policy(rng)))
               for row in range(n) for i, k in enumerate(K_LADDER)]


def qos_run(inp: QosInput) -> criotq.QosReport:
    return criotq.evaluate_qos(inp.params, MAX_DROP, MAX_INTERFERENCE)


def qos_check(inp: QosInput, report: criotq.QosReport) -> list[str]:
    return checks.check_qos(report, inp.params, criotq.Constraints(MAX_DROP, MAX_INTERFERENCE))


# --- region-small-k --------------------------------------------------------

REGION_K = (10, 15, 20)
REGION_LAMBDA = (5e-4, 2e-3)
REGION_BETA = (0.1, 0.5)
#: critical_lambda's default tol=1e-3 is absolute: about 30% of lambda_c on
#: the default cell, so its bisection barely runs.  The searches here use a
#: tolerance relative to the search's start rate instead.
LAMBDA_REL_TOL = 1e-3
BETA_TOL = 1e-3


@dataclass(frozen=True)
class RegionInput:
    kind: str  # "beta" or "lambda"
    params: criotq.SystemParams
    constraints: criotq.Constraints
    tol: float


def region_rounds(seed: int) -> Iterator[list[RegionInput]]:
    # A round runs both searches at every K of the ladder.
    rng = random.Random(seed)
    constraints = criotq.Constraints(MAX_DROP, MAX_INTERFERENCE)
    while True:
        batch = []
        for k in REGION_K:
            for kind in ("beta", "lambda"):
                lam = _log_uniform(rng, *REGION_LAMBDA, 0, 1)
                params = cell(k, lam, beta=rng.uniform(*REGION_BETA), **_sensing_policy(rng))
                tol = BETA_TOL if kind == "beta" else LAMBDA_REL_TOL * lam
                batch.append(RegionInput(kind, params, constraints, tol))
        yield batch


def region_run(inp: RegionInput) -> criotq.CriticalResult:
    search = criotq.critical_beta if inp.kind == "beta" else criotq.critical_lambda
    return search(inp.params, inp.constraints, tol=inp.tol)


def region_check(inp: RegionInput, result: criotq.CriticalResult) -> list[str]:
    return checks.check_critical(inp.kind, inp.params, inp.constraints, inp.tol, result)


# --- sim-validate ----------------------------------------------------------

SIM_K = 10
SIM_LAMBDA = (5e-4, 8e-3)
SIM_STRATA = 8
SIM_HORIZON = 200_000


@dataclass(frozen=True)
class SimInput:
    params: criotq.SystemParams
    sim_seed: int


@dataclass(frozen=True)
class SimOutput:
    sim: criotq.SimResult
    full: criotq.QosReport
    baseline: criotq.QosReport


def sim_rounds(seed: int) -> Iterator[list[SimInput]]:
    # One compare grid point per op, on the default cell at K=10, with the
    # default config's horizon; a round covers eight load strata from light
    # to heavy load (the compare grid spans 0.0005 to 0.008).
    rng = random.Random(seed)
    while True:
        yield [SimInput(cell(SIM_K, _log_uniform(rng, *SIM_LAMBDA, s, SIM_STRATA)),
                        rng.getrandbits(32))
               for s in range(SIM_STRATA)]


def sim_run(inp: SimInput) -> SimOutput:
    config = criotq.SimConfig(params=inp.params, horizon_slots=SIM_HORIZON, seed=inp.sim_seed)
    sim = criotq.run_simulation(config)
    return SimOutput(sim, criotq.evaluate_qos(inp.params), criotq.synchronized_baseline(inp.params))


def sim_check(inp: SimInput, out: SimOutput) -> list[str]:
    return (checks.check_sim(out.sim, out.full)
            + checks.check_qos(out.full, inp.params)
            + checks.check_qos(out.baseline, inp.params))


WORKLOADS = {w.name: w for w in (
    Workload("qos-large-k",
             "one evaluate_qos at K=100..400 from light to saturated load: chain build and dense solve",
             qos_rounds, qos_run, qos_check, len(K_LADDER)),
    Workload("region-small-k",
             "critical_beta and critical_lambda at K=10..20: thousands of tiny chains, per-call overhead",
             region_rounds, region_run, region_check, 4 * len(REGION_K)),
    Workload("sim-validate",
             "one compare point at K=10: simulator slot loop, then the chain and the synchronized baseline",
             sim_rounds, sim_run, sim_check, 4 * SIM_STRATA),
)}
