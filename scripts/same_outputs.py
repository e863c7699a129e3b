"""Write the outputs that must not change when the program is only reshaped.

Usage, from any directory:

    python3 scripts/same_outputs.py OUT

criotq is imported from the ``src/`` of the checkout this script sits in.
Under OUT it writes:

* ``cli/<name>/``: the files and the stdout of each command of a fixed
  list of CLI commands (``analyze --emit-stationary --emit-matrix`` of
  every ``configs/*.json``, the sweeps of the region configs, a
  false-alarm lambda_c sweep, compare runs, a zero-load analyze, three
  light-load analyzes, two K=200 analyzes with --emit-stationary, a
  simulate, an analyze that sets every parameter flag, a simulate that
  sets every sim flag, a simulate off the unit slot grid whose horizon
  crosses a simulator chunk, a two-replication simulate whose horizon
  spans three chunks, a simulate whose horizon is exactly two chunks, a
  saturated simulate that drops most arrivals, a sweep with --tol and
  --beta, two sweeps whose searches skip points a chain-free floor rules
  out, a lambda_c sweep with a search infeasible
  at its floor, a beta_c sweep whose pre-scan stack is singular, a
  lambda_c sweep whose doubling stacks fail at a speculative end, an
  analyze of the default config without its
  constraints section, an analyze whose offered load overflows, an
  analyze whose policy never serves, an analyze and a sweep with
  -0.0 policy coins, and a simulate whose config misspells a sim key),
  each with the category and text of every warning it emits, and its
  exit status;
* ``inputs/``: the derived configs those commands read;
* ``region-small-k/seed<N>.txt``: the ``repr`` of each search result of
  the first 8 rounds of the benchmark's ``region-small-k`` workload, seeds
  11 to 13 (144 searches, each with its full report).

Run it on two checkouts and compare with ``diff -r OUT_A OUT_B``: an
empty diff means every CLI output and every region-search answer, with
its report, is the same to the last byte.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from criotq import cli  # noqa: E402
import workloads  # noqa: E402

#: Derived configs, written under OUT; commands name them as {inputs}/...
NO_CONSTRAINTS = "default-no-constraints.json"
MISSPELT_KEY = "default-misspelt-sim-key.json"
REGION_SEEDS = (11, 12, 13)
REGION_ROUNDS = 8

COMMANDS = [
    *((f"analyze-{config.stem}",
       ["analyze", "--config", f"configs/{config.name}", "--emit-stationary", "--emit-matrix"])
      for config in sorted((ROOT / "configs").glob("*.json"))),
    ("sweep-region_detection", ["sweep", "--config", "configs/region_detection.json"]),
    ("sweep-region_false_alarm", ["sweep", "--config", "configs/region_false_alarm.json"]),
    ("sweep-false-alarm-lambda_c",
     ["sweep", "--config", "configs/default.json", "--axis", "false-alarm",
      "--target", "lambda_c", "--grid", "0.1,0.5,0.9,1.0"]),
    ("compare-default",
     ["compare", "--config", "configs/default.json", "--lambda-grid", "0.0,0.0005,0.002"]),
    ("compare-sync_compare", ["compare", "--config", "configs/sync_compare.json"]),
    ("analyze-zero-load",
     ["analyze", "--config", "configs/default.json", "--lambda", "0", "--emit-stationary"]),
    # Light loads: pmf(0) rounds to 1 at 1e-18; K=1 meets the cancelling
    # tail column 1 - pmf(0) at 3e-18 (a range error) and 1e-16.
    ("analyze-light-load", ["analyze", "--config", "configs/default.json", "--lambda", "1e-18"]),
    ("analyze-k1-light-load-3e-18",
     ["analyze", "--config", "configs/default.json", "--capacity-k", "1", "--lambda", "3e-18"]),
    ("analyze-k1-light-load-1e-16",
     ["analyze", "--config", "configs/default.json", "--capacity-k", "1", "--lambda", "1e-16"]),
    # Long tail rows: the capped column at K=200, at the default and a heavy load.
    ("analyze-k200",
     ["analyze", "--config", "configs/default.json", "--capacity-k", "200", "--emit-stationary"]),
    ("analyze-k200-lambda-0.05",
     ["analyze", "--config", "configs/default.json", "--capacity-k", "200", "--lambda", "0.05",
      "--emit-stationary"]),
    ("simulate-default", ["simulate", "--config", "configs/default.json"]),
    ("analyze-all-flags",
     ["analyze", "--config", "configs/default.json", "--mu-on", "1.5", "--mu-off", "0.8",
      "--n", "20", "--lambda", "0.002", "--capacity-k", "6", "--slot-d", "0.5",
      "--p-d", "0.8", "--p-f", "0.2", "--theta", "0.3", "--xi", "0.4", "--p-max", "5",
      "--beta", "0.4"]),
    ("simulate-sim-flags",
     ["simulate", "--config", "configs/default.json", "--horizon", "5000", "--warmup", "500",
      "--seed", "7", "--replications", "2"]),
    ("simulate-slot-d",  # inexact slot bounds; the horizon crosses the 262,144-slot chunk
     ["simulate", "--config", "configs/default.json", "--slot-d", "0.37", "--mu-on", "0.7",
      "--mu-off", "2.3", "--horizon", "300000"]),
    ("simulate-three-chunks",  # two replications, each handing over three phase-path chunks
     ["simulate", "--config", "configs/default.json", "--horizon", "600000", "--warmup", "60000",
      "--replications", "2"]),
    ("simulate-two-full-chunks",  # the horizon ends on a chunk bound, so no path is drawn past it
     ["simulate", "--config", "configs/default.json", "--horizon", "524288"]),
    # Most arrivals are dropped, so each slot admits only its earliest ones.
    ("simulate-saturated",
     ["simulate", "--config", "configs/default.json", "--lambda", "0.02", "--capacity-k", "3"]),
    ("sweep-tol-beta",
     ["sweep", "--config", "configs/region_detection.json", "--tol", "0.01", "--beta", "0.3"]),
    # Points the probes skip: a lambda_c search whose whole first doubling
    # stack lies above the saturation rate (about 0.0037 here), and beta_c
    # searches whose interference floor passes its limit (poor detection).
    ("sweep-lambda_c-above-saturation",
     ["sweep", "--config", "configs/default.json", "--axis", "detection", "--target", "lambda_c",
      "--grid", "0.9", "--lambda", "0.01", "--tol", "1e-6"]),
    ("sweep-beta_c-poor-detection",
     ["sweep", "--config", "configs/region_detection.json", "--grid", "0.1,0.2,0.3"]),
    # At p_detect 0.1 the interference floor fails every rate: a "none" row.
    ("sweep-lambda_c-infeasible-at-floor",
     ["sweep", "--config", "configs/default.json", "--axis", "detection", "--target", "lambda_c",
      "--grid", "0.1,0.9"]),
    # Failing stacks, each replayed one point at a time over the points its
    # search needs: a pre-scan whose every point is singular (the phase
    # never moves and nothing arrives), and doubling stacks at K=1 whose
    # speculative ends meet the cancelling tail column while the first
    # end does not, until the first end 4e-18 fails too.
    ("sweep-beta_c-singular",
     ["sweep", "--config", "configs/region_detection.json", "--mu-on", "1e-300",
      "--mu-off", "1e-300", "--slot-d", "1e-300", "--lambda", "0", "--grid", "0.9"]),
    ("sweep-lambda_c-k1-speculative-failure",
     ["sweep", "--config", "configs/default.json", "--axis", "detection", "--target", "lambda_c",
      "--grid", "0.9", "--capacity-k", "1", "--lambda", "1e-18"]),
    ("analyze-no-constraints", ["analyze", "--config", f"{{inputs}}/{NO_CONSTRAINTS}"]),
    ("analyze-overflowing-load",
     ["analyze", "--config", "configs/default.json", "--lambda", "1e307"]),
    # A policy that never serves: P_B = 1, no waits, and an infinite power need.
    ("analyze-never-serving",
     ["analyze", "--config", "configs/default.json", "--theta", "1", "--lambda", "0.01"]),
    # Signed-zero coins: -0.0 decision probabilities and the products they give.
    ("analyze-signed-zero",
     ["analyze", "--config", "configs/default.json", "--xi", "-0.0", "--theta", "-0.0",
      "--emit-stationary", "--emit-matrix"]),
    ("sweep-region_detection-signed-zero",
     ["sweep", "--config", "configs/region_detection.json", "--xi", "-0.0"]),
    # sim.replicatons is not a setting: the run is refused, not made with one replication.
    ("simulate-unknown-key", ["simulate", "--config", f"{{inputs}}/{MISSPELT_KEY}"]),
]


def write_inputs(inputs: Path) -> None:
    inputs.mkdir(parents=True)
    cfg = json.loads((ROOT / "configs" / "default.json").read_text())
    cfg["sim"]["replicatons"] = 3
    (inputs / MISSPELT_KEY).write_text(json.dumps(cfg, indent=2) + "\n")
    del cfg["sim"]["replicatons"], cfg["constraints"]
    (inputs / NO_CONSTRAINTS).write_text(json.dumps(cfg, indent=2) + "\n")


def run_cli(out: Path) -> None:
    inputs = out / "inputs"
    write_inputs(inputs)
    for name, argv in COMMANDS:
        argv = [arg.format(inputs=inputs) for arg in argv]
        target = out / "cli" / name
        target.mkdir(parents=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = cli.main([*argv, "--out", str(target)])
        # A warning's source path names the checkout, so only its text is kept.
        notes = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        (target / "stdout.txt").write_text(f"{stdout.getvalue()}{notes}exit status {status}\n")


def run_region_searches(out: Path) -> None:
    target = out / "region-small-k"
    target.mkdir(parents=True)
    for seed in REGION_SEEDS:
        rounds = itertools.islice(workloads.region_rounds(seed), REGION_ROUNDS)
        lines = [repr(workloads.region_run(inp)) for inp in itertools.chain.from_iterable(rounds)]
        (target / f"seed{seed}.txt").write_text("\n".join(lines) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/same_outputs.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    os.chdir(ROOT)  # the commands name their configs relative to the checkout
    run_cli(out)
    run_region_searches(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
