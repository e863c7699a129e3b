import csv
import json
import math
from pathlib import Path

import pytest

from criotq.cli import (COMPARE_COLUMNS, METRICS_COLUMNS, SIM_COLUMNS,
                        SWEEP_COLUMNS, SWEEP_DIAG_COLUMNS, main)

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
    bad.write_text("{not json")
    rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert not (tmp_path / "out" / "metrics.csv").exists()
    assert "error:" in capsys.readouterr().err


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


def test_simulate_deterministic_across_runs_and_workers(tmp_path, monkeypatch):
    args = ["simulate", "--config", DEFAULT_CONFIG, "--horizon", "4000",
            "--warmup", "400", "--replications", "4", "--lambda", "0.01"]
    monkeypatch.setenv("CRIOTQ_WORKERS", "1")
    main(args + ["--out", str(tmp_path / "serial")])
    main(args + ["--out", str(tmp_path / "serial2")])
    monkeypatch.setenv("CRIOTQ_WORKERS", "4")
    main(args + ["--out", str(tmp_path / "threaded")])
    serial = (tmp_path / "serial" / "sim.csv").read_bytes()
    assert serial == (tmp_path / "serial2" / "sim.csv").read_bytes()
    assert serial == (tmp_path / "threaded" / "sim.csv").read_bytes()


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


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
