"""Command-line front end.

Subcommands: analyze (stationary metrics of one operating point),
simulate (Monte Carlo validation run), sweep (critical-value curve
along a sensing axis), compare (waiting-time curves of the simulator,
the full chain and the synchronized reference over a rate grid).

A run is configured by a JSON file plus flat flag overrides; every
output is CSV with fixed, documented columns, floats printed with 12
significant digits, and written atomically (temp file then rename) so
a failed run never leaves a truncated file.  The environment variable
CRIOTQ_WORKERS is still accepted and must be an integer if set, but
every command runs in one thread and its output never depends on it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import CriotqError, InvalidParameterError
from .metrics import evaluate_qos
from .params import (PnpModel, PolicyModel, PowerModel, SensingModel, SystemParams,
                     TrafficModel)
from .region import (Constraints, SWEEP_AXES, SWEEP_TARGETS, params_with_activity,
                     sweep, synchronized_baseline)
from .simulate import GENERATOR_NAME, SimConfig, run_simulation

WORKERS_ENV = "CRIOTQ_WORKERS"

METRICS_COLUMNS = ["beta", "offered_load", "carried_load", "p_b", "w_inverse_rate",
                   "w_slot_avg", "p_i", "charge_fraction", "charge_fraction_nominal",
                   "p_th", "p_th_clamped", "power_feasible", "solver_residual",
                   "solver_method", "feasible"]
SIM_COLUMNS = ["row", "rep", "seed", "generator", "horizon_slots", "warmup_slots",
               "generated", "admitted", "dropped", "served", "p_b_hat", "p_b_se",
               "sojourn_hat", "sojourn_se", "p_i_hat", "p_i_se", "carried_load_hat",
               "charge_fraction_hat"]
SWEEP_COLUMNS = ["axis_name", "axis_value", "critical_name", "critical_value",
                 "p_b", "p_i", "w_inverse_rate", "w_slot_avg", "p_th", "feasible"]
COMPARE_COLUMNS = ["lambda", "w_sim", "w_full_model", "w_sync_baseline"]


def _check_workers_env() -> None:
    """Reject a non-integer CRIOTQ_WORKERS; any integer is accepted and changes nothing."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        int(raw or "1")
    except ValueError as exc:
        raise InvalidParameterError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".12g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidParameterError(f"config {path} must hold a JSON object at top level")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise InvalidParameterError(f"config section {name!r} must be an object")
    return dict(sec)


def _need(sec: dict, section: str, key: str):
    if key not in sec or sec[key] is None:
        raise InvalidParameterError(f"missing required config value {section}.{key} "
                                    f"(set it in the config file or by flag)")
    return sec[key]


#: flag destination -> (config section, key) for scalar parameter overrides.
_PARAM_OVERRIDES = {
    "mu_on": ("pnp", "mu_on"),
    "mu_off": ("pnp", "mu_off"),
    "n": ("traffic", "n"),
    "lam": ("traffic", "lambda"),
    "capacity_k": ("traffic", "capacity_k"),
    "slot_d": ("traffic", "slot_d"),
    "p_d": ("sensing", "p_detect"),
    "p_f": ("sensing", "p_false_alarm"),
    "theta": ("policy", "theta_idle"),
    "xi": ("policy", "xi_charge"),
    "p_max": ("power", "p_max"),
}


def _build_params(cfg: dict, args) -> SystemParams:
    merged = {name: _section(cfg, name) for name in
              ("pnp", "traffic", "sensing", "policy", "power")}
    for dest, (section, key) in _PARAM_OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            merged[section][key] = value

    pnp_sec, tr_sec = merged["pnp"], merged["traffic"]
    sen_sec, pol_sec, pow_sec = merged["sensing"], merged["policy"], merged["power"]
    pnp = PnpModel(mu_on=float(_need(pnp_sec, "pnp", "mu_on")),
                   mu_off=float(_need(pnp_sec, "pnp", "mu_off")))
    traffic = TrafficModel(n=int(_need(tr_sec, "traffic", "n")),
                           lam=float(_need(tr_sec, "traffic", "lambda")),
                           capacity_k=int(_need(tr_sec, "traffic", "capacity_k")),
                           slot_d=float(_need(tr_sec, "traffic", "slot_d")))
    sensing = SensingModel(p_detect=float(_need(sen_sec, "sensing", "p_detect")),
                           p_false_alarm=float(_need(sen_sec, "sensing", "p_false_alarm")))
    policy = PolicyModel(theta_idle=float(_need(pol_sec, "policy", "theta_idle")),
                         xi_charge=float(_need(pol_sec, "policy", "xi_charge")))
    radii = _need(pow_sec, "power", "node_radii")
    if not isinstance(radii, (list, tuple)):
        raise InvalidParameterError("power.node_radii must be a list of distances")
    charging_radius = pow_sec.get("charging_radius")
    power = PowerModel(p_charge_min=float(_need(pow_sec, "power", "p_charge_min")),
                       p_max=float(_need(pow_sec, "power", "p_max")),
                       energy_per_packet=float(_need(pow_sec, "power", "energy_per_packet")),
                       pathloss_exponent=float(_need(pow_sec, "power", "pathloss_exponent")),
                       node_radii=tuple(float(r) for r in radii),
                       charging_radius=None if charging_radius is None else float(charging_radius))
    params = SystemParams(pnp=pnp, traffic=traffic, sensing=sensing, policy=policy, power=power)
    if getattr(args, "beta", None) is not None:
        params = params_with_activity(params, args.beta)
    return params


def _build_constraints(cfg: dict, required: bool) -> Constraints | None:
    sec = _section(cfg, "constraints")
    if not sec:
        if required:
            raise InvalidParameterError("this command needs a constraints section "
                                        "(max_drop, max_interference)")
        return None
    return Constraints(max_drop=float(_need(sec, "constraints", "max_drop")),
                       max_interference=float(_need(sec, "constraints", "max_interference")))


def _build_sim_config(cfg: dict, args, params: SystemParams) -> SimConfig:
    sec = _section(cfg, "sim")
    for dest, key in (("horizon", "horizon_slots"), ("warmup", "warmup_slots"),
                      ("seed", "seed"), ("replications", "replications")):
        value = getattr(args, dest, None)
        if value is not None:
            sec[key] = value
    warmup = sec.get("warmup_slots")
    return SimConfig(params=params,
                     horizon_slots=int(_need(sec, "sim", "horizon_slots")),
                     seed=int(_need(sec, "sim", "seed")),
                     warmup_slots=None if warmup is None else int(warmup),
                     replications=int(sec.get("replications", 1)))


_PHASE_NAMES = np.array(["off", "on"])
_ACTION_NAMES = np.array(["idle", "serve", "charge"])


def _state_columns(space, idx: np.ndarray) -> list[np.ndarray]:
    """queue, phase and action columns for the states at positions idx."""
    return [space.queue[idx], _PHASE_NAMES[space.phase[idx]], _ACTION_NAMES[space.action[idx]]]


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    params = _build_params(cfg, args)
    constraints = _build_constraints(cfg, required=False)
    if constraints is None:
        report = evaluate_qos(params)
    else:
        report = evaluate_qos(params, constraints.max_drop, constraints.max_interference)

    out = Path(args.out)
    row = [report.beta, report.offered_load, report.carried_load, report.drop_prob,
           report.wait_inverse_rate, report.wait_slot_avg, report.interference_prob,
           report.charge_frac, report.charge_frac_nominal, report.power.total,
           report.power.clamped, report.power.feasible, report.residual,
           report.solver_method, report.feasible]
    _write_csv(out / "metrics.csv", METRICS_COLUMNS, [row])

    if args.emit_stationary or args.emit_matrix:
        from .chain import build_transition_matrix, stationary_distribution
        tm = build_transition_matrix(params)
        if args.emit_stationary:
            mu = stationary_distribution(tm)
            states = _state_columns(tm.space, np.arange(tm.space.size))
            _write_csv(out / "stationary.csv", ["queue", "phase", "action", "probability"],
                       zip(*states, mu.vector))
        if args.emit_matrix:
            src, dst = np.nonzero(tm.matrix)  # row-major: by source, then destination
            rows = zip(*_state_columns(tm.space, src), *_state_columns(tm.space, dst),
                       tm.matrix[src, dst])
            _write_csv(out / "matrix.csv",
                       ["src_queue", "src_phase", "src_action",
                        "dst_queue", "dst_phase", "dst_action", "probability"], rows)

    print(f"p_b={_fmt(report.drop_prob)} p_i={_fmt(report.interference_prob)} "
          f"carried={_fmt(report.carried_load)}")
    print(f"w_inverse_rate={_fmt(report.wait_inverse_rate)} "
          f"w_slot_avg={_fmt(report.wait_slot_avg)}")
    print(f"p_th={_fmt(report.power.total)} feasible={_fmt(report.feasible)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    params = _build_params(cfg, args)
    sim_cfg = _build_sim_config(cfg, args, params)
    _check_workers_env()
    result = run_simulation(sim_cfg)

    rows = []
    for rep in result.reps:
        c = rep.counts
        rows.append(["rep", rep.rep_index, result.seed, result.generator,
                     result.horizon_slots, result.warmup_slots, c.generated, c.admitted,
                     c.dropped, c.served, rep.drop_prob_hat, rep.drop_prob_se,
                     rep.mean_sojourn_hat, rep.mean_sojourn_se, rep.interference_hat,
                     rep.interference_se, rep.carried_load_hat, rep.charge_fraction_hat])
    c = result.counts
    rows.append(["pooled", -1, result.seed, result.generator, result.horizon_slots,
                 result.warmup_slots, c.generated, c.admitted, c.dropped, c.served,
                 result.drop_prob_hat, result.drop_prob_se, result.mean_sojourn_hat,
                 result.mean_sojourn_se, result.interference_hat, result.interference_se,
                 result.carried_load_hat, result.charge_fraction_hat])
    _write_csv(Path(args.out) / "sim.csv", SIM_COLUMNS, rows)

    print(f"p_b_hat={_fmt(result.drop_prob_hat)} (se {_fmt(result.drop_prob_se)}) "
          f"sojourn_hat={_fmt(result.mean_sojourn_hat)} (se {_fmt(result.mean_sojourn_se)}) "
          f"p_i_hat={_fmt(result.interference_hat)} (se {_fmt(result.interference_se)})")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    params = _build_params(cfg, args)
    constraints = _build_constraints(cfg, required=True)
    sec = _section(cfg, "sweep")
    axis = args.axis if args.axis is not None else sec.get("axis")
    target = args.target if args.target is not None else sec.get("target")
    grid = args.grid if args.grid is not None else sec.get("grid")
    tol = args.tol if args.tol is not None else float(sec.get("tol", 1e-3))
    if axis not in SWEEP_AXES:
        raise InvalidParameterError(f"sweep axis must be one of {SWEEP_AXES}")
    if target not in SWEEP_TARGETS:
        raise InvalidParameterError(f"sweep target must be one of {SWEEP_TARGETS}")
    if not grid:
        raise InvalidParameterError("sweep grid is missing or empty")
    values = sorted(float(v) for v in grid)  # canonical order for stable output

    _check_workers_env()
    rows_out = []
    for row in sweep(params, constraints, axis, values, target, tol=tol):
        rep = row.report
        if rep is None:
            metric_cells = [math.nan, math.nan, math.nan, math.nan, math.nan, False]
        else:
            metric_cells = [rep.drop_prob, rep.interference_prob, rep.wait_inverse_rate,
                            rep.wait_slot_avg, rep.power.total, rep.feasible]
        rows_out.append([axis, row.swept_value, target, row.critical_value] + metric_cells)
    _write_csv(Path(args.out) / "sweep.csv", SWEEP_COLUMNS, rows_out)
    print(f"sweep {axis} -> {target}: {len(rows_out)} rows")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    params = _build_params(cfg, args)
    sec = _section(cfg, "compare")
    grid = args.lambda_grid if args.lambda_grid is not None else sec.get("lambda_grid")
    if not grid:
        raise InvalidParameterError("compare lambda_grid is missing or empty")
    lam_grid = [float(v) for v in grid]  # echoed in caller order

    _check_workers_env()
    rows = []
    for lam in lam_grid:
        p2 = replace(params, traffic=replace(params.traffic, lam=lam))
        sim_cfg = _build_sim_config(cfg, args, p2)
        sim = run_simulation(sim_cfg)
        full = evaluate_qos(p2)
        base = synchronized_baseline(p2)
        rows.append([lam, sim.mean_sojourn_hat, full.wait_slot_avg, base.wait_slot_avg])
    _write_csv(Path(args.out) / "compare.csv", COMPARE_COLUMNS, rows)
    print(f"compare: {len(rows)} rate points")
    return 0


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--mu-on", dest="mu_on", type=float)
    p.add_argument("--mu-off", dest="mu_off", type=float)
    p.add_argument("--beta", type=float,
                   help="set the primary activity factor by scaling mu_off")
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--capacity-k", dest="capacity_k", type=int)
    p.add_argument("--slot-d", dest="slot_d", type=float)
    p.add_argument("--p-d", dest="p_d", type=float)
    p.add_argument("--p-f", dest="p_f", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--p-max", dest="p_max", type=float)


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--replications", type=int)


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidParameterError(f"grid must be comma-separated numbers: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="criotq",
                                     description="slotted opportunistic-cell analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stationary metrics of one operating point")
    _add_param_flags(p)
    p.add_argument("--emit-stationary", action="store_true")
    p.add_argument("--emit-matrix", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo run")
    _add_param_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="critical-value curve along a sensing axis")
    _add_param_flags(p)
    p.add_argument("--axis", choices=list(SWEEP_AXES))
    p.add_argument("--target", choices=list(SWEEP_TARGETS))
    p.add_argument("--grid", type=_parse_grid, help="comma-separated axis values")
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="waiting-time curves over a rate grid")
    _add_param_flags(p)
    _add_sim_flags(p)
    p.add_argument("--lambda-grid", dest="lambda_grid", type=_parse_grid,
                   help="comma-separated per-node rates")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CriotqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
