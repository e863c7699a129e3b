"""criotq benchmark: run one workload against the public Python API.

    python3 perfbench/run.py --workload qos-large-k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; criotq is imported from ``src/``.
With ``--trace 0`` the ops run untraced for about ``--seconds`` seconds of
op time at reference host speed (whole rounds, see workloads.py) and the
end-to-end metrics are reported, with times normalized to that speed
(hostspeed.py).
With ``--trace 1`` a fixed number of ops runs twice, once untraced and once
under the layer tracer, and the per-layer metrics plus the tracing overhead
are reported; end-to-end numbers never come from a traced run.  Every op's
output is checked, and an op that raises, fails its check or runs past
``OP_LIMIT_S`` counts as failed.

Human-readable lines (machine, every metric with its unit) go to stdout
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result with the
machine record is also written to ``perfbench/results/``, and a traced
run writes its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("qos-large-k", "region-small-k", "sim-validate")

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 5
#: An op still running after this many seconds is stopped and counted as
#: failed, so a run ends in bounded time even if a solver stalls.
OP_LIMIT_S = 40
#: Percentile reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
MAX_ERRORS_KEPT = 10

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import criotq
import workloads
first_round = next(workloads.WORKLOADS[sys.argv[1]].rounds(int(sys.argv[2])))
t1 = time.perf_counter()
import hostspeed
hostspeed.sample()  # the first kernel runs are cold
print(t1 - t0, hostspeed.sample())
"""


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds to import criotq and build one round of params, host kernel seconds),
    each pair from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE, workload, str(seed)],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        setup_s, kernel_s = out.stdout.split()
        samples.append((float(setup_s), float(kernel_s)))
    return samples


def _blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, if it exposes one."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


class OpTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the body once ``seconds`` of wall time have passed."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class OpLog:
    """Latency, host speed and outcome of every op; checks are kept off the clock."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.kernel_s: list[float] = []  # host kernel time before each op, plus one at the end
        self.failed = 0
        self.errors: list[str] = []

    def run(self, inp, call=None) -> float:
        """Time one op (through ``call`` if given), check it, return its raw seconds."""
        self.kernel_s.append(hostspeed.sample())
        t0 = time.perf_counter()
        try:
            with time_limit(OP_LIMIT_S):
                out = (call or self.workload.run)(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            dt = time.perf_counter() - t0
            problems = [f"raised {exc!r} on {inp}"]
        else:
            dt = time.perf_counter() - t0
            problems = self.workload.check(inp, out)
        self.latencies.append(dt)
        if problems:
            self.failed += 1
            self.errors.extend(problems[:MAX_ERRORS_KEPT - len(self.errors)])
        return dt

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def normalized(self) -> list[float]:
        """Op seconds at reference host speed, from the kernel times around each op
        (the first call takes the kernel sample that follows the last op)."""
        if len(self.kernel_s) == len(self.latencies):
            self.kernel_s.append(hostspeed.sample())
        k = self.kernel_s
        return [t * hostspeed.REFERENCE_S / (0.5 * (k[i] + k[i + 1]))
                for i, t in enumerate(self.latencies)]


def timed_run(workload, seed: int, seconds: float) -> tuple[OpLog, int]:
    """Untraced whole rounds, stopping at the round boundary nearest to
    ``seconds`` of op time at reference host speed (at least one round), so
    that a slow phase of the host does not shrink the sample."""
    log = OpLog(workload)
    rounds = workload.rounds(seed)
    n_rounds = 0
    elapsed = last = 0.0
    while n_rounds == 0 or elapsed + last / 2 < seconds:
        last = 0.0
        for inp in next(rounds):
            last += log.run(inp) * hostspeed.REFERENCE_S / log.kernel_s[-1]
        n_rounds += 1
        elapsed += last
    return log, n_rounds


def ops_per_s(times: list[float], n_rounds: int) -> float:
    """Ops of a round over its time, each stratum taken at its median over the rounds.

    A host burst that slows a few ops moves a median less than a total.
    """
    per_round = len(times) // n_rounds
    strata = [times[i::per_round] for i in range(per_round)]
    return per_round / sum(statistics.median(col) for col in strata)


def traced_run(workload, plan: list, spans_path: Path):
    """The ops of ``plan``, untraced then traced; returns the log and layer metrics."""
    from tracer import Tracer  # imports criotq, so only once src/ is on the path

    log = OpLog(workload)
    for inp in plan:
        log.run(inp)

    tracer = Tracer()

    def traced_call(inp):
        with tracer.op(workload.name):
            return workload.run(inp)

    tracer.install()
    try:
        for inp in plan:
            log.run(inp, traced_call)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    layer = tracer.layer_metrics()
    times = log.normalized()
    untraced, traced = sum(times[:len(plan)]), sum(times[len(plan):])
    layer["trace_overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return log, layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "criotq" / "__init__.py").is_file():
        print(f"error: no criotq sources under {SRC}; run from a criotq checkout",
              file=sys.stderr)
        return 2

    setup = measure_setup(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import criotq
    import workloads
    if Path(criotq.__file__).resolve().parent != SRC / "criotq":
        print(f"error: imported criotq from {criotq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra: dict = {}
    if args.trace:
        ops = itertools.chain.from_iterable(workload.rounds(args.seed))
        plan = list(itertools.islice(ops, workload.trace_ops))
        log, metrics = traced_run(workload, plan, RESULTS / f"{stem}.spans.jsonl")
    else:
        log, n_rounds = timed_run(workload, args.seed, args.seconds)
        lat, raw = log.normalized(), log.latencies
        setup_norm = [s * hostspeed.REFERENCE_S / k for s, k in setup]
        metrics = {
            "ops_per_s": (ops_per_s(lat, n_rounds), "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "setup_s": (statistics.median(setup_norm), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra["rounds"] = n_rounds
        extra["raw"] = {"ops_per_s": ops_per_s(raw, n_rounds), "op_p50_s": statistics.median(raw),
                        "setup_s": statistics.median(s for s, _ in setup),
                        "op_time_s": sum(raw), "kernel_s_median": statistics.median(log.kernel_s)}
        if len(lat) >= P90_MIN_SAMPLES:
            extra["op_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    extra["fail_frac"] = log.failed / log.attempted
    extra["setup_samples"] = setup

    result = {"correct": log.failed == 0, "attempted": log.attempted, "failed": log.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": workload.why, "machine": machine(), **extra,
              "errors": log.errors, **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {workload.why}")
    print("# machine: " + json.dumps(record["machine"]))
    for k, (v, u) in metrics.items():
        print(f"{k:28s} {v:.6g} {u}")
    if not args.trace:
        p90 = extra.get("op_p90_s")
        print(f"{'op_p90_s':28s} " + (f"{p90:.6g} s" if p90 is not None else "not reported")
              + f" ({log.attempted} samples)")
        for k, v in extra["raw"].items():
            print(f"{'raw ' + k:28s} {v:.6g}")
    print(f"{'fail_frac':28s} {extra['fail_frac']:.6g} ({log.failed}/{log.attempted})")
    for err in log.errors:
        print(f"# check failed: {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
