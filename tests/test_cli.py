import copy
import csv
import dataclasses
import json
import math
from pathlib import Path

import pytest

from criotq import (Constraints, PnpModel, PolicyModel, PowerModel, SensingModel, SimConfig,
                    TrafficModel)
from criotq.cli import (COMPARE_COLUMNS, METRICS_COLUMNS, SIM_COLUMNS,
                        SWEEP_COLUMNS, SWEEP_DIAG_COLUMNS, _SETTINGS, main)
from conftest import time_limit

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = str(REPO / "configs" / "default.json")
GOLDEN_METRICS = Path(__file__).resolve().parent / "data" / "golden_metrics.csv"


def read_rows(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames), list(reader)


def test_analyze_writes_golden_metrics(tmp_path):
    rc = main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path)])
    assert rc == 0
    produced = (tmp_path / "metrics.csv").read_bytes()
    assert produced == GOLDEN_METRICS.read_bytes()


def test_analyze_is_deterministic(tmp_path):
    main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path / "a")])
    main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path / "b")])
    assert ((tmp_path / "a" / "metrics.csv").read_bytes()
            == (tmp_path / "b" / "metrics.csv").read_bytes())


def test_analyze_summary_lines(tmp_path, capsys):
    main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "p_b=" in out and "p_i=" in out and "p_th=" in out


def test_analyze_without_constraints_leaves_only_the_flag_unset(tmp_path):
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    del cfg["constraints"]
    partial = tmp_path / "nc.json"
    partial.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(partial), "--out", str(tmp_path / "free")]) == 0
    assert main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path / "bound")]) == 0
    _, [free] = read_rows(tmp_path / "free" / "metrics.csv")
    _, [bound] = read_rows(tmp_path / "bound" / "metrics.csv")
    assert free.pop("feasible") == "none"
    assert bound.pop("feasible") == "true"
    assert free == bound


def test_analyze_emits_stationary_and_matrix(tmp_path):
    rc = main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path),
               "--emit-stationary", "--emit-matrix"])
    assert rc == 0
    header, rows = read_rows(tmp_path / "stationary.csv")
    assert header == ["queue", "phase", "action", "probability"]
    assert len(rows) == 64
    assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    header, rows = read_rows(tmp_path / "matrix.csv")
    assert header == ["src_queue", "src_phase", "src_action",
                      "dst_queue", "dst_phase", "dst_action", "probability"]
    by_src = {}
    for r in rows:
        key = (r["src_queue"], r["src_phase"], r["src_action"])
        by_src[key] = by_src.get(key, 0.0) + float(r["probability"])
    assert len(by_src) == 64
    for key, total in by_src.items():
        assert total == pytest.approx(1.0, abs=1e-9), key


def test_metrics_schema_and_values(tmp_path):
    main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path)])
    header, rows = read_rows(tmp_path / "metrics.csv")
    assert header == METRICS_COLUMNS
    assert len(rows) == 1
    row = rows[0]
    assert float(row["beta"]) == 0.5
    assert float(row["p_b"]) < 1e-4
    assert row["feasible"] == "true"
    assert row["solver_method"] == "direct"


def test_malformed_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # Not JSON, and JSON in bytes that are not UTF-8.
    for content in (b"{not json", "{}".encode("utf-16")):
        bad.write_bytes(content)
        rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out" / "metrics.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {bad} is not valid JSON: "), err


def test_an_integer_past_the_float_range_is_refused_by_its_record(tmp_path, capsys):
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    cfg["pnp"]["mu_on"] = 10**400  # json reads it as an int that float() cannot take
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(cfg))
    rc = main(["analyze", "--config", str(huge), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: pnp rates must be finite\n"
    assert not (tmp_path / "out").exists()


def test_config_must_hold_an_object_at_top_level(tmp_path, capsys):
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([json.loads(Path(DEFAULT_CONFIG).read_text())]))
    rc = main(["analyze", "--config", str(listed), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: config {listed} must hold a JSON object at top level\n")
    assert not (tmp_path / "out").exists()


def test_missing_config_value_is_actionable(tmp_path, capsys):
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    del cfg["traffic"]["lambda"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(cfg))
    rc = main(["analyze", "--config", str(partial), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "traffic.lambda" in err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_missing_config_file_exits_nonzero(tmp_path, capsys):
    rc = main(["analyze", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_a_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # The rename onto a directory fails after the temp file is written.
    (tmp_path / "metrics.csv").mkdir()
    rc = main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path)])
    assert rc == 1
    assert "error: [Errno 21] Is a directory:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


def test_flag_overrides_beat_config(tmp_path):
    main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path),
          "--lambda", "0.002"])
    _, rows = read_rows(tmp_path / "metrics.csv")
    assert float(rows[0]["offered_load"]) == pytest.approx(0.04, abs=1e-12)


def test_beta_flag_retunes_activity(tmp_path):
    main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path),
          "--beta", "0.25"])
    _, rows = read_rows(tmp_path / "metrics.csv")
    assert float(rows[0]["beta"]) == pytest.approx(0.25, abs=1e-9)


def test_saturated_policy_row_is_well_formed(tmp_path):
    rc = main(["analyze", "--config", DEFAULT_CONFIG, "--out", str(tmp_path),
               "--theta", "1", "--lambda", "0.01"])
    assert rc == 0
    _, rows = read_rows(tmp_path / "metrics.csv")
    row = rows[0]
    assert float(row["p_b"]) == 1.0
    assert row["w_inverse_rate"] == "none" and row["w_slot_avg"] == "none"
    assert row["p_th"] == "inf"
    assert row["power_feasible"] == "false"
    assert row["feasible"] == "false"


def test_simulate_rows_and_schema(tmp_path):
    rc = main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(tmp_path),
               "--horizon", "4000", "--warmup", "400", "--replications", "3",
               "--lambda", "0.01"])
    assert rc == 0
    header, rows = read_rows(tmp_path / "sim.csv")
    assert header == SIM_COLUMNS
    assert len(rows) == 4
    assert [r["row"] for r in rows] == ["rep", "rep", "rep", "pooled"]
    assert rows[-1]["rep"] == "-1"
    assert rows[-1]["generator"] == "PCG64"
    gen = sum(int(r["generated"]) for r in rows[:-1])
    assert int(rows[-1]["generated"]) == gen
    for r in rows:
        assert int(r["admitted"]) == int(r["generated"]) - int(r["dropped"])


def test_simulate_deterministic_across_runs(tmp_path):
    args = ["simulate", "--config", DEFAULT_CONFIG, "--horizon", "4000",
            "--warmup", "400", "--replications", "4", "--lambda", "0.01"]
    for run in ("a", "b", "c"):
        main(args + ["--out", str(tmp_path / run)])
    first = (tmp_path / "a" / "sim.csv").read_bytes()
    assert first == (tmp_path / "b" / "sim.csv").read_bytes()
    assert first == (tmp_path / "c" / "sim.csv").read_bytes()


def test_negative_seed_is_a_clean_error(tmp_path, capsys):
    rc = main(["simulate", "--config", DEFAULT_CONFIG, "--out", str(tmp_path),
               "--horizon", "1000", "--warmup", "100", "--seed", "-3"])
    assert rc == 1
    assert "error: seed must be >= 0" in capsys.readouterr().err


def test_sweep_schema_and_grid_canonicalization(tmp_path):
    base = ["sweep", "--config", DEFAULT_CONFIG, "--axis", "detection",
            "--target", "beta_c", "--tol", "0.005"]
    rc = main(base + ["--grid", "0.9,0.7,0.8", "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(base + ["--grid", "0.7,0.8,0.9", "--out", str(tmp_path / "b")])
    assert rc == 0
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    assert a == (tmp_path / "b" / "sweep.csv").read_bytes()
    header, rows = read_rows(tmp_path / "a" / "sweep.csv")
    assert header == SWEEP_COLUMNS
    assert [r["axis_value"] for r in rows] == ["0.7", "0.8", "0.9"]
    assert all(r["critical_name"] == "beta_c" for r in rows)
    crit = [float(r["critical_value"]) for r in rows]
    assert crit[0] <= crit[1] + 0.005 <= crit[2] + 0.01


def test_sweep_row_of_a_search_infeasible_at_its_floor(tmp_path):
    # At p_detect 0.1 the interference floor passes its limit at every rate.
    rc = main(["sweep", "--config", DEFAULT_CONFIG, "--axis", "detection", "--target",
               "lambda_c", "--grid", "0.1,0.9", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1] == "detection,0.1,lambda_c,none,nan,nan,nan,nan,nan,false"
    assert rows[2].startswith("detection,0.9,lambda_c,0.0") and rows[2].endswith(",true")
    diag = (tmp_path / "sweep_diag.csv").read_text().splitlines()
    assert diag[1:] == ["0.1,false,true,false", "0.9,true,true,false"]


def test_sweep_diag_keeps_the_search_flags(tmp_path):
    rc = main(["sweep", "--config", DEFAULT_CONFIG, "--axis", "detection",
               "--target", "beta_c", "--tol", "0.005", "--grid", "0.9,0.7",
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_rows(tmp_path / "sweep_diag.csv")
    assert header == SWEEP_DIAG_COLUMNS
    assert [r["axis_value"] for r in rows] == ["0.7", "0.9"]
    assert all((r["feasible_at_zero"], r["monotone"], r["capped"]) == ("true", "true", "false")
               for r in rows)
    # A relaxed cell is feasible over the whole beta range: the capped flag
    # that sweep.csv cannot show lands here.
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    cfg["constraints"] = {"max_drop": 1.0, "max_interference": 1.0}
    lax = tmp_path / "lax.json"
    lax.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(lax), "--axis", "detection", "--target", "beta_c",
               "--grid", "0.9", "--out", str(tmp_path / "lax")])
    assert rc == 0
    _, rows = read_rows(tmp_path / "lax" / "sweep_diag.csv")
    assert rows == [{"axis_value": "0.9", "feasible_at_zero": "true", "monotone": "true",
                     "capped": "true"}]


@pytest.mark.parametrize("section,key,value,message", [
    ("sim", "seed", "abc", "sim.seed must be an integer"),
    ("sim", "horizon_slots", 1000.9, "sim.horizon_slots must be an integer"),
    ("traffic", "capacity_k", 10.5, "traffic.capacity_k must be an integer"),
    ("traffic", "lambda", "fast", "traffic.lambda must be a number"),
    ("sensing", "p_detect", True, "sensing.p_detect must be a number"),
    ("traffic", "lambda", "0.001", "traffic.lambda must be a number"),
])
def test_bad_config_number_names_its_key(tmp_path, capsys, section, key, value, message):
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    cfg[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sim.csv").exists()


def test_whole_float_config_integers_are_accepted(tmp_path):
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    cfg["sim"].update(horizon_slots=2e3, warmup_slots=2e2, seed=7.0)
    cfg["traffic"]["capacity_k"] = 4.0
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(whole), "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "sim.csv")
    assert (rows[0]["horizon_slots"], rows[0]["warmup_slots"], rows[0]["seed"]) == (
        "2000", "200", "7")


def test_sweep_rejects_a_nan_tolerance(tmp_path, capsys):
    rc = main(["sweep", "--config", str(REPO / "configs" / "region_detection.json"),
               "--tol", "nan", "--out", str(tmp_path)])
    assert rc == 1
    assert "tol must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_with_a_tolerance_below_the_float_spacing_finishes(tmp_path):
    with time_limit(20.0):
        rc = main(["sweep", "--config", str(REPO / "configs" / "region_detection.json"),
                   "--tol", "1e-17", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 11 and all(r["critical_value"] != "none" for r in rows)


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--lambda", "1e18", "--horizon", "1000", "--warmup", "100"]),
    ("compare", ["--lambda-grid", "1e18"]),
])
def test_simulating_past_the_poisson_limit_is_a_clean_error(tmp_path, capsys, command, flags):
    rc = main([command, "--config", DEFAULT_CONFIG, "--out", str(tmp_path), *flags])
    assert rc == 1
    assert "error: per-slot arrival mean 2e+19 is too large" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--lambda", "1e5", "--horizon", "1000", "--warmup", "100"]),
    ("compare", ["--lambda-grid", "1e5"]),
])
def test_simulating_past_the_arrival_budget_is_a_quick_clean_error(tmp_path, capsys, command,
                                                                    flags):
    # 2e6 arrivals a slot: the timestamps of one chunk would not fit in memory.
    with time_limit(1.0):
        rc = main([command, "--config", DEFAULT_CONFIG, "--out", str(tmp_path), *flags])
    assert rc == 1
    assert "error: per-slot arrival mean 2e+06 is too large: a chunk of" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("analyze", ["--lambda", "1e307"]),
    ("simulate", ["--lambda", "1e307"]),
    ("sweep", ["--lambda", "1e307", "--axis", "detection", "--target", "lambda_c",
               "--grid", "0.9"]),
    ("compare", ["--lambda-grid", "1e307"]),
    ("analyze", ["--n", "1" + "0" * 400]),  # n itself is past the float range
])
def test_an_overflowing_offered_load_is_refused_before_any_build(tmp_path, capsys, command,
                                                                  flags):
    # 20 nodes at 1e307 packets/s offer an infinite load per slot.
    rc = main([command, "--config", DEFAULT_CONFIG, "--out", str(tmp_path), *flags])
    assert rc == 1
    assert capsys.readouterr().err == "error: offered load n * lam * slot_d must be finite\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--horizon", "1000", "--warmup", "100"]),
    ("compare", ["--lambda-grid", "0.001"]),
])
def test_simulating_past_the_switch_budget_is_a_clean_error(tmp_path, capsys, command, flags):
    with time_limit(5.0):
        rc = main([command, "--config", DEFAULT_CONFIG, "--out", str(tmp_path),
                   "--mu-on", "1e300", "--mu-off", "1e300", *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a replication of "), err
    assert "phase switches, over the simulator's budget of 1e+09" in err
    assert not list(tmp_path.iterdir())


def test_sweep_requires_constraints(tmp_path, capsys):
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    del cfg["constraints"]
    partial = tmp_path / "nc.json"
    partial.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(partial), "--axis", "detection",
               "--target", "beta_c", "--grid", "0.9", "--out", str(tmp_path)])
    assert rc == 1
    assert "constraints" in capsys.readouterr().err


def test_sweep_config_section_rejects_bad_axis_and_target(tmp_path, capsys):
    # Flags are checked by argparse; values from the config's sweep
    # section reach region.sweep, which must reject them before any search.
    for key in ("axis", "target"):
        cfg = json.loads((REPO / "configs" / "region_detection.json").read_text())
        cfg["sweep"][key] = "sideways"
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / key)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be one of"), err
        assert not (tmp_path / key / "sweep.csv").exists()


def test_compare_schema_and_determinism(tmp_path):
    args = ["compare", "--config", DEFAULT_CONFIG, "--horizon", "3000",
            "--warmup", "300", "--seed", "99", "--lambda-grid", "0.004,0.001"]
    rc = main(args + ["--out", str(tmp_path / "a")])
    assert rc == 0
    main(args + ["--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "compare.csv").read_bytes()
    assert a == (tmp_path / "b" / "compare.csv").read_bytes()
    header, rows = read_rows(tmp_path / "a" / "compare.csv")
    assert header == COMPARE_COLUMNS
    # caller grid order is preserved, not sorted
    assert [r["lambda"] for r in rows] == ["0.004", "0.001"]
    for r in rows:
        assert float(r["w_sync_baseline"]) <= float(r["w_full_model"]) + 1e-9
        assert math.isfinite(float(r["w_sim"]))


#: Each parameter flag and the config key it overrides.
PARAM_FLAGS = [("--mu-on", "pnp.mu_on"), ("--mu-off", "pnp.mu_off"), ("--n", "traffic.n"),
               ("--lambda", "traffic.lambda"), ("--capacity-k", "traffic.capacity_k"),
               ("--slot-d", "traffic.slot_d"), ("--p-d", "sensing.p_detect"),
               ("--p-f", "sensing.p_false_alarm"), ("--theta", "policy.theta_idle"),
               ("--xi", "policy.xi_charge"), ("--p-max", "power.p_max")]
#: The output file of each command that has run flags.
RUN_OUTPUTS = {"simulate": "sim.csv", "sweep": "sweep.csv", "compare": "compare.csv"}


def short_run_config() -> dict:
    """The default config with short simulations and two-point sweep and compare grids."""
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    cfg["sim"] = {"horizon_slots": 4000, "warmup_slots": 300, "seed": 5, "replications": 2}
    cfg["sweep"] = {"axis": "detection", "target": "beta_c", "grid": [0.7, 0.9], "tol": 0.01}
    cfg["compare"] = {"lambda_grid": [0.001, 0.002]}
    return cfg


def key_by_flag(tmp_path: Path, cfg: dict, flag: str, name: str) -> list[str]:
    """Arguments that load cfg without the key `name` and give its value by flag."""
    cfg = copy.deepcopy(cfg)
    section, key = name.split(".")
    value = cfg[section].pop(key)
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(cfg))
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    return ["--config", str(path), flag, text]


@pytest.mark.parametrize("flag,name", PARAM_FLAGS)
def test_param_flag_supplies_its_config_key(tmp_path, flag, name):
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    rc = main(["analyze", *key_by_flag(tmp_path, cfg, flag, name), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "metrics.csv").read_bytes() == GOLDEN_METRICS.read_bytes()


@pytest.mark.parametrize("command,flag,name", [
    ("simulate", "--horizon", "sim.horizon_slots"),
    ("simulate", "--warmup", "sim.warmup_slots"),
    ("simulate", "--seed", "sim.seed"),
    ("simulate", "--replications", "sim.replications"),
    ("sweep", "--axis", "sweep.axis"),
    ("sweep", "--target", "sweep.target"),
    ("sweep", "--grid", "sweep.grid"),
    ("sweep", "--tol", "sweep.tol"),
    ("compare", "--lambda-grid", "compare.lambda_grid"),
])
def test_run_flag_supplies_its_config_key(tmp_path, command, flag, name):
    cfg = short_run_config()
    full = tmp_path / "full.json"
    full.write_text(json.dumps(cfg))
    assert main([command, "--config", str(full), "--out", str(tmp_path / "file")]) == 0
    rc = main([command, *key_by_flag(tmp_path, cfg, flag, name), "--out", str(tmp_path / "flag")])
    assert rc == 0
    output = RUN_OUTPUTS[command]
    assert (tmp_path / "flag" / output).read_bytes() == (tmp_path / "file" / output).read_bytes()


@pytest.mark.parametrize("command,name,default", [
    ("analyze", "power.charging_radius", lambda cfg: max(cfg["power"]["node_radii"])),
    ("simulate", "sim.warmup_slots", lambda cfg: cfg["sim"]["horizon_slots"] // 10),
    ("simulate", "sim.replications", lambda cfg: 1),
    ("sweep", "sweep.tol", lambda cfg: 1e-3),
])
def test_an_unset_optional_setting_takes_its_default(tmp_path, command, name, default):
    cfg = short_run_config()
    section, key = name.split(".")
    cfg[section][key] = default(cfg)
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(cfg))
    del cfg[section][key]
    unset = tmp_path / "unset.json"
    unset.write_text(json.dumps(cfg))
    assert main([command, "--config", str(explicit), "--out", str(tmp_path / "explicit")]) == 0
    assert main([command, "--config", str(unset), "--out", str(tmp_path / "unset")]) == 0
    output = RUN_OUTPUTS.get(command, "metrics.csv")
    assert (tmp_path / "unset" / output).read_bytes() == (
        tmp_path / "explicit" / output).read_bytes()


@pytest.mark.parametrize("command,name,value", [
    ("sweep", "sweep.grid", 0.9),
    ("compare", "compare.lambda_grid", 0.001),
    ("compare", "compare.lambda_grid", "12"),
    ("analyze", "power.node_radii", "5"),
])
def test_list_value_must_be_a_json_list(tmp_path, capsys, command, name, value):
    cfg = short_run_config()
    section, key = name.split(".")
    cfg[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([command, "--config", str(bad), "--out", str(out)])
    assert rc == 1
    assert f"error: {name} must be a nonempty list of numbers" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_every_command_checks_every_known_section(tmp_path, capsys):
    cfg = json.loads(Path(DEFAULT_CONFIG).read_text())
    cfg["notes"] = "top-level keys outside the known sections are ignored"
    cfg["sweep"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: config section 'sweep' must be an object" in capsys.readouterr().err
    del cfg["sweep"]
    bad.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(bad), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name,value", [("sim.replicatons", 3), ("policy.xi_chrage", 0.9)])
def test_a_misspelt_key_in_a_known_section_is_refused(tmp_path, capsys, name, value):
    cfg = short_run_config()
    section, key = name.split(".")
    cfg[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: unknown config key {name}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,record", [
    ("pnp", PnpModel), ("traffic", TrafficModel), ("sensing", SensingModel),
    ("policy", PolicyModel), ("power", PowerModel), ("constraints", Constraints),
    ("sim", SimConfig),
])
def test_the_settings_of_a_section_follow_the_fields_of_its_record(section, record):
    # The records are built positionally from the settings in table order.
    keys = [name.split(".")[1] for name in _SETTINGS if name.split(".")[0] == section]
    fields = [f.name for f in dataclasses.fields(record) if f.name != "params"]
    assert [{"lambda": "lam"}.get(key, key) for key in keys] == fields


@pytest.mark.parametrize("command,flag", [("sweep", "--grid"), ("compare", "--lambda-grid")])
def test_bad_grid_flag_shows_its_message(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", DEFAULT_CONFIG, flag, "0.5,abc"])
    assert exc.value.code == 2
    assert "grid must be comma-separated numbers: '0.5,abc'" in capsys.readouterr().err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
