"""Outside-in layer tracer for the criotq benchmark.

The tracer never edits criotq: while installed it rebinds module attributes
at the layer boundaries to wrappers, in every ``criotq`` module that binds
them (so ``criotq.metrics.build_transition_matrix`` and the name imported
into ``criotq.chain`` are both seen), and restores the originals on
``uninstall``.  Coarse calls become spans (layer, name, start, end, parent)
kept in memory; the hot helpers called millions of times per op
(``arrival_pmf``, ``StateSpace.index``, ...) are only counted, because a
span per call would cost more memory than the run itself.  Calls are only
recorded inside ``op()``, so the benchmark's output checks stay untraced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from criotq import chain, metrics, region, simulate, slot


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _nbytes(matrix) -> int:
    """Bytes of the returned matrix, computed from its arrays (dense or CSR)."""
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    return sum(int(getattr(matrix, a).nbytes) for a in ("data", "indices", "indptr")
               if hasattr(matrix, a))


def _on_build(tracer, span, args, kwargs, result):
    span.attrs["matrix_bytes"] = _nbytes(result.matrix)


def _on_solve(tracer, span, args, kwargs, result):
    span.attrs["method"] = result.method
    span.attrs["residual"] = float(result.residual)


def _on_probe(tracer, span, args, kwargs, result):
    search = next((s for s in reversed(tracer._stack) if s.name.startswith("critical_")), None)
    if search is None:
        return
    seen = tracer._probed.setdefault(search.id, set())
    params = args[0]
    span.attrs["search"] = search.id
    span.attrs["repeat"] = params in seen
    seen.add(params)


def _on_search(tracer, span, args, kwargs, result):
    span.attrs["monotone"] = result.monotone
    span.attrs["capped"] = result.capped


def _on_simulation(tracer, span, args, kwargs, result):
    span.attrs["slots"] = result.horizon_slots * result.replications


#: (defining module, attribute, layer, span name, hook on the result)
SPANNED = (
    (chain, "build_transition_matrix", "chain", "build", _on_build),
    (chain, "stationary_distribution", "chain", "solve", _on_solve),
    (metrics, "evaluate_qos", "metrics", "evaluate_qos", None),
    (region, "feasibility_check", "region", "probe", _on_probe),
    (region, "critical_beta", "region", "critical_beta", _on_search),
    (region, "critical_lambda", "region", "critical_lambda", _on_search),
    (region, "synchronized_baseline", "region", "synchronized_baseline", None),
    (simulate, "run_simulation", "simulate", "run_simulation", _on_simulation),
)
#: (owner, attribute, counter); owners that are classes get a method wrapper.
COUNTED = (
    (slot, "arrival_pmf", "slot.arrival_pmf_calls"),
    (slot, "arrival_tail", "slot.arrival_tail_calls"),
    (chain.StateSpace, "index", "chain.index_calls"),
    (chain.StationaryDistribution, "prob", "metrics.prob_calls"),
)


class Tracer:
    """Records spans and call counts at criotq's layer boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[Span] = []
        self._probed: dict[int, set] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary that exists; one a later version removed counts 0."""
        for module, attr, layer, name, hook in SPANNED:
            original = getattr(module, attr, None)
            if original is not None:
                self._rebind(original, self._spanned(original, layer, name, hook))
        for owner, attr, key in COUNTED:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._counted(original, key)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "criotq" or n.startswith("criotq."))]
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._set(module, attr, wrapper)

    def _spanned(self, fn, layer: str, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, key: str):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- recording ------------------------------------------------------

    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, workload: str):
        """Record everything the benchmark's op calls, under one root span."""
        span = self._open("bench", workload)
        self.active = True
        try:
            yield span
        finally:
            self.active = False
            self._close(span)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "layer": s.layer,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")

    # -- per-layer metrics ----------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit).  Ratios with no base read 0."""
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        child_s = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.seconds

        def spans(*names):
            return [s for n in names for s in by_name.get(n, [])]

        def total_s(*names):
            return sum(s.seconds for s in spans(*names))

        builds, solves = spans("build"), spans("solve")
        searches = spans("critical_beta", "critical_lambda")
        probes = [s for s in spans("probe") if "search" in s.attrs]
        repeats = sum(s.attrs["repeat"] for s in probes)
        sims = spans("run_simulation")
        sim_s = total_s("run_simulation")
        return {
            "slot.arrival_pmf_calls": (self.counts["slot.arrival_pmf_calls"], "count"),
            "slot.arrival_tail_calls": (self.counts["slot.arrival_tail_calls"], "count"),
            "chain.build_calls": (len(builds), "count"),
            "chain.build_s": (total_s("build"), "s"),
            "chain.index_calls": (self.counts["chain.index_calls"], "count"),
            "chain.solve_calls": (len(solves), "count"),
            "chain.solve_s": (total_s("solve"), "s"),
            "chain.solve_fallbacks": (sum(s.attrs["method"] != "direct" for s in solves), "count"),
            "chain.solve_residual_max": (max((s.attrs["residual"] for s in solves), default=0.0),
                                         "1"),
            "chain.matrix_bytes": (max((s.attrs["matrix_bytes"] for s in builds), default=0), "B"),
            "metrics.qos_calls": (len(by_name.get("evaluate_qos", [])), "count"),
            "metrics.qos_self_s": (sum(s.seconds - child_s[s.id] for s in spans("evaluate_qos")),
                                   "s"),
            "metrics.prob_calls": (self.counts["metrics.prob_calls"], "count"),
            "region.searches": (len(searches), "count"),
            "region.search_s": (total_s("critical_beta", "critical_lambda"), "s"),
            "region.probes_per_search": (len(probes) / len(searches) if searches else 0.0,
                                         "count"),
            "region.repeat_probes": (repeats, "count"),
            "region.useful_probe_ratio": (1.0 - repeats / len(probes) if probes else 0.0,
                                          "ratio"),
            "region.nonmonotone": (sum(not s.attrs["monotone"] for s in searches), "count"),
            "region.capped": (sum(s.attrs["capped"] for s in searches), "count"),
            "simulate.runs": (len(sims), "count"),
            "simulate.run_s": (sim_s, "s"),
            "simulate.slots_per_s": (sum(s.attrs["slots"] for s in sims) / sim_s if sims else 0.0,
                                     "1/s"),
        }
