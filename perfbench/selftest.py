"""Tests of the benchmark itself (not collected by a plain ``pytest`` run).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import criotq  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

QOS = workloads.WORKLOADS["qos-large-k"]
REGION = workloads.WORKLOADS["region-small-k"]
SIM = workloads.WORKLOADS["sim-validate"]


def small_plans() -> dict:
    """A few cheap ops of each workload, taken from its seeded rounds."""
    qos_round = next(QOS.rounds(7))
    return {
        QOS.name: [min(qos_round, key=lambda inp: inp.params.traffic.capacity_k)],
        REGION.name: next(REGION.rounds(7))[:2],
        SIM.name: next(SIM.rounds(7))[:1],
    }


def trace(workload, plan) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        for inp in plan:
            with tracer.op(workload.name):
                out = workload.run(inp)
            assert workload.check(inp, out) == []
    finally:
        tracer.uninstall()
    return tracer


@pytest.fixture(scope="module")
def traced():
    plans = small_plans()
    return {name: [trace(workloads.WORKLOADS[name], plan) for _ in range(2)]
            for name, plan in plans.items()}


def test_rounds_repeat_for_a_seed():
    for w in workloads.WORKLOADS.values():
        assert next(w.rounds(3)) == next(w.rounds(3))
        assert next(w.rounds(3)) != next(w.rounds(4))


def test_traced_counts_repeat(traced):
    for name, (first, second) in traced.items():
        a, b = first.layer_metrics(), second.layer_metrics()
        counts = {k for k, (_, unit) in a.items() if unit in ("count", "B")}
        assert {k: a[k] for k in counts} == {k: b[k] for k in counts}, name


def test_uninstall_restores_the_program():
    original = criotq.metrics.evaluate_qos
    tracer = Tracer()
    tracer.install()
    assert criotq.evaluate_qos is not original
    tracer.uninstall()
    assert criotq.evaluate_qos is original and criotq.region.evaluate_qos is original
    assert criotq.chain.StateSpace.index.__qualname__ == "StateSpace.index"


def _op_s(tracer: Tracer) -> float:
    return sum(s.seconds for s in tracer.spans if s.layer == "bench")


def test_each_workload_loads_its_layer(traced):
    qos = traced[QOS.name][0]
    m = qos.layer_metrics()
    assert m["region.searches"][0] == 0 and m["simulate.runs"][0] == 0
    assert m["chain.build_calls"][0] == m["chain.solve_calls"][0] == 1
    assert (m["chain.build_s"][0] + m["chain.solve_s"][0]) / _op_s(qos) > 0.8
    assert m["slot.arrival_pmf_calls"][0] > 1000 and m["chain.index_calls"][0] > 10_000

    region = traced[REGION.name][0]
    m = region.layer_metrics()
    assert m["region.searches"][0] == 2 and m["simulate.runs"][0] == 0
    assert m["region.probes_per_search"][0] > 30
    assert m["region.repeat_probes"][0] >= 2  # the final report re-evaluates a probe
    assert m["region.search_s"][0] / _op_s(region) > 0.95

    sim = traced[SIM.name][0]
    m = sim.layer_metrics()
    assert m["simulate.runs"][0] == 1 and m["region.searches"][0] == 0
    assert m["metrics.qos_calls"][0] == 2  # the full chain and the synchronized baseline
    assert m["simulate.run_s"][0] / _op_s(sim) > 0.8


# --- the output checks reject wrong results --------------------------------


@pytest.fixture(scope="module")
def small_cell():
    return workloads.cell(10, 0.001)


def test_check_qos_rejects_wrong_reports(small_cell):
    c = criotq.Constraints(workloads.MAX_DROP, workloads.MAX_INTERFERENCE)
    report = criotq.evaluate_qos(small_cell, c.max_drop, c.max_interference)
    assert checks.check_qos(report, small_cell, c) == []

    tm = criotq.build_transition_matrix(small_cell)
    mu = criotq.stationary_distribution(tm).vector.copy()
    mu[0], mu[1] = mu[0] + 1e-6, mu[1] - 1e-6  # a perturbed stationary vector
    residual = float(np.max(np.abs(mu @ tm.matrix - mu)))
    wrong = [
        replace(report, residual=residual),
        replace(report, carried_load=report.offered_load * 1.01),
        replace(report, wait_inverse_rate=report.wait_inverse_rate * (1 + 1e-6)),
        replace(report, drop_prob=1.2),
        replace(report, feasible=not report.feasible),
        replace(report, offered_load=report.offered_load * 2),
    ]
    for bad in wrong:
        assert checks.check_qos(bad, small_cell, c), bad


def test_check_critical_rejects_wrong_results(small_cell):
    c = criotq.Constraints(workloads.MAX_DROP, workloads.MAX_INTERFERENCE)
    result = criotq.critical_beta(small_cell, c)
    assert checks.check_critical("beta", small_cell, c, 1e-3, result) == []

    too_high = min(criotq.BETA_CEIL, result.value + 0.2)
    wrong = [
        replace(result, value=None, report=None),
        replace(result, report=replace(result.report, feasible=False)),
        replace(result, value=too_high,
                report=criotq.evaluate_qos(criotq.params_with_activity(small_cell, too_high),
                                           c.max_drop, c.max_interference)),
    ]
    for bad in wrong:
        assert checks.check_critical("beta", small_cell, c, 1e-3, bad), bad


def test_check_sim_rejects_shifted_estimates(small_cell):
    sim = criotq.run_simulation(criotq.SimConfig(params=small_cell, horizon_slots=50_000, seed=5))
    chain = criotq.evaluate_qos(small_cell)
    assert checks.check_sim(sim, chain) == []

    c = sim.counts
    shift = 20 * sim.interference_se
    wrong = [
        replace(sim, interference_hat=sim.interference_hat + shift),
        replace(sim, carried_load_hat=sim.carried_load_hat + 0.01),
        replace(sim, counts=c._replace(generated=c.generated + 50, admitted=c.admitted + 50)),
        replace(sim, interference_se=math.nan),
    ]
    for bad in wrong:
        assert checks.check_sim(bad, chain), bad


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-validate",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and '"correct"' not in out.stdout
