"""Command-line front end.

Subcommands: analyze (stationary metrics of one operating point),
simulate (Monte Carlo validation run), sweep (critical-value curve
along a sensing axis), compare (waiting-time curves of the simulator,
the full chain and the synchronized reference over a rate grid).

A run is configured by a JSON file plus flags.  Every setting has one
name, ``section.key``, which is also the dest of the flag that
overrides it.  ``_SETTINGS`` is the one list of settings: it gives each
its flag, kind and default, and the flags, the typed reads and the
records are all made from it; a key of a known section that it does
not name is refused.  Every output is CSV with fixed, documented columns,
floats printed with 12 significant digits, and written atomically (temp
file then rename) so a failed run never leaves a truncated file.  Every
command runs its steps one after another; only a simulated replication
draws each chunk's phase path, from its own random stream, on the
replication's one worker thread.  Output depends only on the
configuration and flags.
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


#: A setting without a default: the config file or a flag must give it.
_REQUIRED = object()

#: Every setting of a run, by ``section.key``: its flag (None when it is
#: set only in the config file), its kind (float, int, list for a
#: nonempty list of numbers, or a tuple of the words it may take) and its
#: default.  Within a section the keys are in the order that its record's
#: fields, or ``cmd_sweep``, take them.
_SETTINGS = {
    "pnp.mu_on": ("--mu-on", float, _REQUIRED),
    "pnp.mu_off": ("--mu-off", float, _REQUIRED),
    "traffic.n": ("--n", int, _REQUIRED),
    "traffic.lambda": ("--lambda", float, _REQUIRED),
    "traffic.capacity_k": ("--capacity-k", int, _REQUIRED),
    "traffic.slot_d": ("--slot-d", float, _REQUIRED),
    "sensing.p_detect": ("--p-d", float, _REQUIRED),
    "sensing.p_false_alarm": ("--p-f", float, _REQUIRED),
    "policy.theta_idle": ("--theta", float, _REQUIRED),
    "policy.xi_charge": ("--xi", float, _REQUIRED),
    "power.p_charge_min": (None, float, _REQUIRED),
    "power.p_max": ("--p-max", float, _REQUIRED),
    "power.energy_per_packet": (None, float, _REQUIRED),
    "power.pathloss_exponent": (None, float, _REQUIRED),
    "power.node_radii": (None, list, _REQUIRED),
    "power.charging_radius": (None, float, None),
    "constraints.max_drop": (None, float, _REQUIRED),
    "constraints.max_interference": (None, float, _REQUIRED),
    "sim.horizon_slots": ("--horizon", int, _REQUIRED),
    "sim.seed": ("--seed", int, _REQUIRED),
    "sim.warmup_slots": ("--warmup", int, None),
    "sim.replications": ("--replications", int, 1),
    # region.sweep names the allowed words when a config gives another.
    "sweep.axis": ("--axis", SWEEP_AXES, None),
    "sweep.target": ("--target", SWEEP_TARGETS, None),
    "sweep.tol": ("--tol", float, 1e-3),
    "sweep.grid": ("--grid", list, _REQUIRED),
    "compare.lambda_grid": ("--lambda-grid", list, _REQUIRED),
}
#: The config sections the commands read; other top-level keys are ignored.
_SECTIONS = tuple(dict.fromkeys(name.split(".")[0] for name in _SETTINGS))
#: The record of each section that SystemParams bundles, by its field name.
_RECORDS = {"pnp": PnpModel, "traffic": TrafficModel, "sensing": SensingModel,
            "policy": PolicyModel, "power": PowerModel}


def _settings(args) -> dict:
    """Every setting of a run by its ``section.key`` name.

    The config file's values come first; each flag given on the command
    line replaces the value named by its argparse dest.  A key of a known
    section that is not in ``_SETTINGS`` is refused.
    """
    cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
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
        for name in cfg:
            if name not in _SETTINGS:
                raise InvalidParameterError(f"unknown config key {name}")
    cfg.update((dest, value) for dest, value in vars(args).items()
               if "." in dest and value is not None)
    return cfg


def _number(value, name: str, integral: bool = False):
    """A config value as a float, or as an int when integral.

    Raises InvalidParameterError naming the key unless the value is a
    JSON number: true and "0.001" are not, though float() takes them.
    An integral value must be an integer or a whole float (2e5 passes,
    1000.9, "12" and true do not).  A float setting given as an integer
    past the float range reads as an infinity, as json reads 1e400.
    """
    if integral:
        if isinstance(value, bool) or not (isinstance(value, int) or (
                isinstance(value, float) and value.is_integer())):
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _get(cfg: dict, name: str):
    """The setting ``name``, read as the kind ``_SETTINGS`` gives it.

    An unset (absent or null) setting takes its default, unless it is
    required.  A list must be a nonempty JSON list of numbers; words pass
    as given.
    """
    _, kind, default = _SETTINGS[name]
    value = cfg.get(name)
    if kind is list:
        if not isinstance(value, list) or not value:
            raise InvalidParameterError(f"{name} must be a nonempty list of numbers")
        return [_number(v, name) for v in value]
    if value is None:
        if default is _REQUIRED:
            raise InvalidParameterError(f"missing required config value {name} "
                                        f"(set it in the config file or by flag)")
        return default
    return value if isinstance(kind, tuple) else _number(value, name, kind is int)


def _section(cfg: dict, section: str) -> list:
    """The settings of one section, in the field order of its record."""
    return [_get(cfg, name) for name in _SETTINGS if name.split(".")[0] == section]


def _build_params(cfg: dict, beta: float | None) -> SystemParams:
    params = SystemParams(**{section: record(*_section(cfg, section))
                             for section, record in _RECORDS.items()})
    return params if beta is None else params_with_activity(params, beta)


def _build_constraints(cfg: dict, required: bool) -> Constraints | None:
    if not any(name.startswith("constraints.") for name in cfg):
        if required:
            raise InvalidParameterError("this command needs a constraints section "
                                        "(max_drop, max_interference)")
        return None
    return Constraints(*_section(cfg, "constraints"))


_PHASE_NAMES = np.array(["off", "on"])
_ACTION_NAMES = np.array(["idle", "serve", "charge"])


def _state_columns(space, idx: np.ndarray) -> list[np.ndarray]:
    """queue, phase and action columns for the states at positions idx."""
    return [space.queue[idx], _PHASE_NAMES[space.phase[idx]], _ACTION_NAMES[space.action[idx]]]


def cmd_analyze(args, cfg: dict, params: SystemParams) -> int:
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
            matrix = tm.matrix[0]
            src, dst = np.nonzero(matrix)  # row-major: by source, then destination
            rows = zip(*_state_columns(tm.space, src), *_state_columns(tm.space, dst),
                       matrix[src, dst])
            _write_csv(out / "matrix.csv",
                       ["src_queue", "src_phase", "src_action",
                        "dst_queue", "dst_phase", "dst_action", "probability"], rows)

    print(f"p_b={_fmt(report.drop_prob)} p_i={_fmt(report.interference_prob)} "
          f"carried={_fmt(report.carried_load)}")
    print(f"w_inverse_rate={_fmt(report.wait_inverse_rate)} "
          f"w_slot_avg={_fmt(report.wait_slot_avg)}")
    print(f"p_th={_fmt(report.power.total)} feasible={_fmt(report.feasible)}")
    return 0


def cmd_simulate(args, cfg: dict, params: SystemParams) -> int:
    result = run_simulation(SimConfig(params, *_section(cfg, "sim")))

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


def cmd_sweep(args, cfg: dict, params: SystemParams) -> int:
    constraints = _build_constraints(cfg, required=True)
    axis, target, tol, grid = _section(cfg, "sweep")
    values = sorted(grid)  # canonical order for stable output

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


def cmd_compare(args, cfg: dict, params: SystemParams) -> int:
    rows = []
    for lam in _get(cfg, "compare.lambda_grid"):  # echoed in caller order
        p2 = replace(params, traffic=replace(params.traffic, lam=lam))
        sim = run_simulation(SimConfig(p2, *_section(cfg, "sim")))
        full = evaluate_qos(p2)
        base = synchronized_baseline(p2)
        rows.append([lam, sim.mean_sojourn_hat, full.wait_slot_avg, base.wait_slot_avg])
    _write_csv(Path(args.out) / "compare.csv", COMPARE_COLUMNS, rows)
    print(f"compare: {len(rows)} rate points")
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated numbers: {text!r}") from exc


def _add_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """Register the flag of each setting of the named sections."""
    for name, (flag, kind, _) in _SETTINGS.items():
        if flag is None or name.split(".")[0] not in sections:
            continue
        if isinstance(kind, tuple):
            p.add_argument(flag, dest=name, choices=kind)
        elif kind is list:
            p.add_argument(flag, dest=name, type=_parse_grid, help="comma-separated numbers")
        else:
            p.add_argument(flag, dest=name, type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="criotq",
                                     description="slotted opportunistic-cell analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about, func, sections in (
            ("analyze", "stationary metrics of one operating point", cmd_analyze, ()),
            ("simulate", "Monte Carlo run", cmd_simulate, ("sim",)),
            ("sweep", "critical-value curve along a sensing axis", cmd_sweep, ("sweep",)),
            ("compare", "waiting-time curves over a rate grid", cmd_compare, ("sim", "compare"))):
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--beta", type=float,
                       help="set the primary activity factor by scaling mu_off")
        _add_flags(p, *_RECORDS, *sections)
        p.set_defaults(func=func)
    sub.choices["analyze"].add_argument("--emit-stationary", action="store_true")
    sub.choices["analyze"].add_argument("--emit-matrix", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _settings(args)
        return args.func(args, cfg, _build_params(cfg, args.beta))
    except (CriotqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
