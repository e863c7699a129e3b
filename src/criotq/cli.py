"""Command-line front end.

Subcommands: analyze (stationary metrics of one operating point),
simulate (Monte Carlo validation run), sweep (critical-value curve
along a sensing axis), compare (waiting-time curves of the simulator,
the full chain and the synchronized reference over a rate grid).

A run is configured by a JSON file plus flags.  Every setting has one
name, ``section.key``, which is also the dest of the flag that
overrides it.  Every output is CSV with fixed, documented columns,
floats printed with 12 significant digits, and written atomically (temp
file then rename) so a failed run never leaves a truncated file.  Every
command runs its steps one after another; only a simulated replication
draws each chunk's phase path, from its own random stream, on a thread
of its own, started as the chunk before is taken.  Output depends only
on the configuration and flags.
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

from .chain import build_transition_matrix, stationary_distribution
from .errors import CriotqError, InvalidParameterError
from .metrics import evaluate_qos, qos_reports
from .params import (PnpModel, PolicyModel, PowerModel, SensingModel, SystemParams,
                     TrafficModel)
from .region import (Constraints, SWEEP_AXES, SWEEP_TARGETS, params_with_activity,
                     sweep, synchronized_baseline)
from .simulate import SimConfig, run_simulation

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
#: Search diagnostics per sweep row, kept out of sweep.csv so its schema holds.
SWEEP_DIAG_COLUMNS = ["axis_value", "feasible_at_zero", "monotone", "capped"]
COMPARE_COLUMNS = ["lambda", "w_sim", "w_full_model", "w_sync_baseline"]


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


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


#: The config sections the commands read; other top-level keys are ignored.
_SECTIONS = ("pnp", "traffic", "sensing", "policy", "power", "constraints", "sim", "sweep",
             "compare")


def _settings(args) -> dict:
    """Every setting of a run by its ``section.key`` name.

    The config file's values come first; each flag given on the command
    line replaces the value named by its argparse dest.
    """
    cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidParameterError(
                    f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidParameterError(
                f"config {args.config} must hold a JSON object at top level")
        for section in _SECTIONS:
            sec = raw.get(section, {})
            if not isinstance(sec, dict):
                raise InvalidParameterError(f"config section {section!r} must be an object")
            cfg.update((f"{section}.{key}", value) for key, value in sec.items())
    cfg.update((dest, value) for dest, value in vars(args).items()
               if "." in dest and value is not None)
    return cfg


def _need(cfg: dict, name: str):
    if cfg.get(name) is None:
        raise InvalidParameterError(f"missing required config value {name} "
                                    f"(set it in the config file or by flag)")
    return cfg[name]


def _number(value, name: str, integral: bool = False):
    """A config value as a float, or as an int when integral.

    Raises InvalidParameterError naming the key unless the value is a
    JSON number: true and "0.001" are not, though float() takes them.
    An integral value must be an integer or a whole float (2e5 passes,
    1000.9, "12" and true do not).
    """
    if integral:
        if isinstance(value, bool) or not (isinstance(value, int) or (
                isinstance(value, float) and value.is_integer())):
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    return float(value)


def _need_number(cfg: dict, name: str, integral: bool = False):
    return _number(_need(cfg, name), name, integral)


def _optional_number(cfg: dict, name: str, default=None, integral: bool = False):
    """An unset (absent or null) value gives default, any other must be a number."""
    value = cfg.get(name)
    return default if value is None else _number(value, name, integral)


def _need_numbers(cfg: dict, name: str) -> list:
    values = cfg.get(name)
    if not isinstance(values, list) or not values:
        raise InvalidParameterError(f"{name} must be a nonempty list of numbers")
    return [_number(v, name) for v in values]


def _build_params(cfg: dict, beta: float | None) -> SystemParams:
    pnp = PnpModel(mu_on=_need_number(cfg, "pnp.mu_on"),
                   mu_off=_need_number(cfg, "pnp.mu_off"))
    traffic = TrafficModel(n=_need_number(cfg, "traffic.n", integral=True),
                           lam=_need_number(cfg, "traffic.lambda"),
                           capacity_k=_need_number(cfg, "traffic.capacity_k", integral=True),
                           slot_d=_need_number(cfg, "traffic.slot_d"))
    sensing = SensingModel(p_detect=_need_number(cfg, "sensing.p_detect"),
                           p_false_alarm=_need_number(cfg, "sensing.p_false_alarm"))
    policy = PolicyModel(theta_idle=_need_number(cfg, "policy.theta_idle"),
                         xi_charge=_need_number(cfg, "policy.xi_charge"))
    power = PowerModel(p_charge_min=_need_number(cfg, "power.p_charge_min"),
                       p_max=_need_number(cfg, "power.p_max"),
                       energy_per_packet=_need_number(cfg, "power.energy_per_packet"),
                       pathloss_exponent=_need_number(cfg, "power.pathloss_exponent"),
                       node_radii=tuple(_need_numbers(cfg, "power.node_radii")),
                       charging_radius=_optional_number(cfg, "power.charging_radius"))
    params = SystemParams(pnp=pnp, traffic=traffic, sensing=sensing, policy=policy, power=power)
    return params if beta is None else params_with_activity(params, beta)


def _build_constraints(cfg: dict, required: bool) -> Constraints | None:
    if not any(name.startswith("constraints.") for name in cfg):
        if required:
            raise InvalidParameterError("this command needs a constraints section "
                                        "(max_drop, max_interference)")
        return None
    return Constraints(max_drop=_need_number(cfg, "constraints.max_drop"),
                       max_interference=_need_number(cfg, "constraints.max_interference"))


def _build_sim_config(cfg: dict, params: SystemParams) -> SimConfig:
    return SimConfig(params=params,
                     horizon_slots=_need_number(cfg, "sim.horizon_slots", integral=True),
                     seed=_need_number(cfg, "sim.seed", integral=True),
                     warmup_slots=_optional_number(cfg, "sim.warmup_slots", integral=True),
                     replications=_optional_number(cfg, "sim.replications", 1, integral=True))


_PHASE_NAMES = np.array(["off", "on"])
_ACTION_NAMES = np.array(["idle", "serve", "charge"])


def _state_columns(space, idx: np.ndarray) -> list[np.ndarray]:
    """queue, phase and action columns for the states at positions idx."""
    return [space.queue[idx], _PHASE_NAMES[space.phase[idx]], _ACTION_NAMES[space.action[idx]]]


def cmd_analyze(args) -> int:
    cfg = _settings(args)
    params = _build_params(cfg, args.beta)
    report = qos_reports([params], _build_constraints(cfg, required=False))[0]

    out = Path(args.out)
    row = [report.beta, report.offered_load, report.carried_load, report.drop_prob,
           report.wait_inverse_rate, report.wait_slot_avg, report.interference_prob,
           report.charge_frac, report.charge_frac_nominal, report.power.total,
           report.power.clamped, report.power.feasible, report.residual,
           report.solver_method, report.feasible]
    _write_csv(out / "metrics.csv", METRICS_COLUMNS, [row])

    if args.emit_stationary or args.emit_matrix:
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
    cfg = _settings(args)
    sim_cfg = _build_sim_config(cfg, _build_params(cfg, args.beta))
    result = run_simulation(sim_cfg)

    # Each replication and the pooled result are Estimates.
    estimates = [("rep", r, rep) for r, rep in enumerate(result.reps)] + [("pooled", -1, result)]
    rows = [[kind, index, result.seed, result.generator, result.horizon_slots,
             result.warmup_slots, est.counts.generated, est.counts.admitted,
             est.counts.dropped, est.counts.served, est.drop_prob_hat, est.drop_prob_se,
             est.mean_sojourn_hat, est.mean_sojourn_se, est.interference_hat,
             est.interference_se, est.carried_load_hat, est.charge_fraction_hat]
            for kind, index, est in estimates]
    _write_csv(Path(args.out) / "sim.csv", SIM_COLUMNS, rows)

    print(f"p_b_hat={_fmt(result.drop_prob_hat)} (se {_fmt(result.drop_prob_se)}) "
          f"sojourn_hat={_fmt(result.mean_sojourn_hat)} (se {_fmt(result.mean_sojourn_se)}) "
          f"p_i_hat={_fmt(result.interference_hat)} (se {_fmt(result.interference_se)})")
    return 0


def cmd_sweep(args) -> int:
    cfg = _settings(args)
    params = _build_params(cfg, args.beta)
    constraints = _build_constraints(cfg, required=True)
    axis, target = cfg.get("sweep.axis"), cfg.get("sweep.target")
    tol = _optional_number(cfg, "sweep.tol", 1e-3)
    values = sorted(_need_numbers(cfg, "sweep.grid"))  # canonical order for stable output

    rows_out = []
    diag_rows = []
    for value, cr in zip(values, sweep(params, constraints, axis, values, target, tol=tol)):
        rep = cr.report
        if rep is None:
            metric_cells = [math.nan, math.nan, math.nan, math.nan, math.nan, False]
        else:
            metric_cells = [rep.drop_prob, rep.interference_prob, rep.wait_inverse_rate,
                            rep.wait_slot_avg, rep.power.total, rep.feasible]
        rows_out.append([axis, value, target, cr.value] + metric_cells)
        diag_rows.append([value, cr.feasible_at_floor, cr.monotone, cr.capped])
    _write_csv(Path(args.out) / "sweep.csv", SWEEP_COLUMNS, rows_out)
    _write_csv(Path(args.out) / "sweep_diag.csv", SWEEP_DIAG_COLUMNS, diag_rows)
    print(f"sweep {axis} -> {target}: {len(rows_out)} rows")
    return 0


def cmd_compare(args) -> int:
    cfg = _settings(args)
    params = _build_params(cfg, args.beta)
    rows = []
    for lam in _need_numbers(cfg, "compare.lambda_grid"):  # echoed in caller order
        p2 = replace(params, traffic=replace(params.traffic, lam=lam))
        sim = run_simulation(_build_sim_config(cfg, p2))
        full = evaluate_qos(p2)
        base = synchronized_baseline(p2)
        rows.append([lam, sim.mean_sojourn_hat, full.wait_slot_avg, base.wait_slot_avg])
    _write_csv(Path(args.out) / "compare.csv", COMPARE_COLUMNS, rows)
    print(f"compare: {len(rows)} rate points")
    return 0


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--mu-on", dest="pnp.mu_on", type=float)
    p.add_argument("--mu-off", dest="pnp.mu_off", type=float)
    p.add_argument("--beta", type=float,
                   help="set the primary activity factor by scaling mu_off")
    p.add_argument("--n", dest="traffic.n", type=int)
    p.add_argument("--lambda", dest="traffic.lambda", type=float)
    p.add_argument("--capacity-k", dest="traffic.capacity_k", type=int)
    p.add_argument("--slot-d", dest="traffic.slot_d", type=float)
    p.add_argument("--p-d", dest="sensing.p_detect", type=float)
    p.add_argument("--p-f", dest="sensing.p_false_alarm", type=float)
    p.add_argument("--theta", dest="policy.theta_idle", type=float)
    p.add_argument("--xi", dest="policy.xi_charge", type=float)
    p.add_argument("--p-max", dest="power.p_max", type=float)


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", dest="sim.horizon_slots", type=int)
    p.add_argument("--warmup", dest="sim.warmup_slots", type=int)
    p.add_argument("--seed", dest="sim.seed", type=int)
    p.add_argument("--replications", dest="sim.replications", type=int)


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated numbers: {text!r}") from exc


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
    p.add_argument("--axis", dest="sweep.axis", choices=list(SWEEP_AXES))
    p.add_argument("--target", dest="sweep.target", choices=list(SWEEP_TARGETS))
    p.add_argument("--grid", dest="sweep.grid", type=_parse_grid,
                   help="comma-separated axis values")
    p.add_argument("--tol", dest="sweep.tol", type=float)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="waiting-time curves over a rate grid")
    _add_param_flags(p)
    _add_sim_flags(p)
    p.add_argument("--lambda-grid", dest="compare.lambda_grid", type=_parse_grid,
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
