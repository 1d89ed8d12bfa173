"""Span tracing applied to the program from outside.

The traced pass wraps the layers' public entry points (functions are
re-bound in every ``repro.*`` module that imported them by name,
methods are replaced on their class) with a recorder that keeps
``(name, start, end, parent, op)`` tuples in memory.  Nothing under
``src/`` knows about it; :meth:`Tracer.uninstall` restores every
binding to the identical original object.

Self time of a span is its duration minus the part of it covered by
its direct children (the program is single-threaded inside an
operation, so children never overlap).
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``op`` tag of spans recorded during set-up (operations count from 0;
#: the warm-up operation is never traced).
OP_SETUP = -1

#: span name, module, attribute ("function" or "Class.method").
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.ppa_clustering", "repro.core.ppa_clustering", "ppa_aware_clustering"),
    ("cluster.fc", "repro.cluster.fc", "first_choice_clustering"),
    ("vpr.select", "repro.core.vpr", "VPRShapeSelector.select"),
    ("ml.select", "repro.core.vpr", "MLShapeSelector.select"),
    ("vpr.evaluate", "repro.core.vpr", "VPRFramework.evaluate_candidate"),
    ("vpr.extract", "repro.core.vpr", "extract_subnetlist"),
    ("place.problem", "repro.place.problem", "PlacementProblem.__init__"),
    ("place.global", "repro.place.placer", "GlobalPlacer.run"),
    ("place.b2b_solve", "repro.place.b2b", "solve_axis"),
    ("route.global", "repro.route.global_route", "GlobalRouter.run"),
    ("route.rsmt", "repro.route.steiner", "rsmt"),
    ("route.cts", "repro.route.cts", "synthesize_clock_tree"),
    ("sta.graph_build", "repro.sta.graph", "timing_graph_for"),
    ("sta.update", "repro.sta.analysis", "TimingAnalyzer.update"),
    ("sta.activity", "repro.sta.activity", "propagate_activity"),
    ("sta.power", "repro.sta.power", "analyze_power"),
    (
        "core.clustered_netlist",
        "repro.core.clustered_netlist",
        "build_clustered_netlist",
    ),
    ("core.seeded", "repro.core.seeded", "seeded_placement"),
    ("ml.features", "repro.ml.features", "FeatureExtractor.extract"),
    ("ml.predict", "repro.ml.model", "TotalCostGNN.predict_shared"),
    ("cache.get", "repro.cache.store", "EvaluationCache.get"),
    ("cache.put", "repro.cache.store", "EvaluationCache.put"),
    ("cache.touch", "repro.cache.store", "EvaluationCache.touch"),
    ("cache.key", "repro.cache.keys", "netlist_digest"),
    ("recovery.save_stage", "repro.recovery.checkpoint", "CheckpointStore.save_stage"),
    ("recovery.load_stage", "repro.recovery.checkpoint", "CheckpointStore.load_stage"),
    ("netlist.snapshot_encode", "repro.netlist.snapshot", "design_snapshot"),
    ("netlist.snapshot_decode", "repro.netlist.snapshot", "design_from_snapshot"),
    ("eco.apply_edits", "repro.eco.apply", "apply_edits"),
    ("eco.open", "repro.eco.engine", "EcoSession.__init__"),
)

#: ``TimingAnalyzer.update`` is one entry point with two behaviours; the
#: program's own counter tells which one a call took:
#: target -> (counter, span name if it moved, span name otherwise).
_SPLIT_BY_COUNTER = {
    "sta.update": ("sta.incremental.updates", "sta.update_incr", "sta.update_full"),
}

Span = Tuple[str, float, float, int, int]


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.op = OP_SETUP
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name: str, func: Callable) -> Callable:
        from repro import perf

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        split = _SPLIT_BY_COUNTER.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            before = perf.counter_value(split[0]) if split else 0
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                final = name
                if split:
                    moved = perf.counter_value(split[0]) != before
                    final = split[1] if moved else split[2]
                spans[index] = (final, start, end, parent, self.op)

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(name, original)
            # `from x import f` copies the binding: re-point every
            # program module that holds this exact function object.
            for holder in list(sys.modules.values()):
                holder_name = getattr(holder, "__name__", "")
                if holder_name != "repro" and not holder_name.startswith("repro."):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextmanager
    def installed(self, op: int) -> Iterator[None]:
        """Trace the enclosed block, tagging its spans with ``op``.

        The program's ``repro.perf`` counters are on for exactly the
        same stretch, so counts and spans describe the same work.
        """
        from repro import perf

        self.op = op
        perf.enable()
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            perf.disable()

    # -- output --------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def write(self, path: str) -> None:
        """Write the span records (name table + rows) as JSON."""
        names: Dict[str, int] = {}
        rows = []
        for span in self.spans:
            if span is None:
                rows.append(None)
                continue
            name, start, end, parent, op = span
            rows.append([names.setdefault(name, len(names)), start, end, parent, op])
        with open(path, "w") as handle:
            json.dump(
                {
                    "schema": "spine.trace/1",
                    "names": sorted(names, key=names.get),
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": rows,
                },
                handle,
            )


# ----------------------------------------------------------------------
# Span arithmetic (pure functions; exercised by the self-tests)
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Optional[Span]]) -> List[float]:
    """Self time per span: duration minus its direct children's.

    ``parent`` indexes into ``spans``; unfinished (None) slots are
    skipped and contribute nothing to their parent.
    """
    out = [0.0 if s is None else s[2] - s[1] for s in spans]
    for span in spans:
        if span is None:
            continue
        parent = span[3]
        if parent >= 0 and spans[parent] is not None:
            out[parent] -= span[2] - span[1]
    return out


class SpanSummary:
    """Per-name totals over the spans of one phase."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}

    def median(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0


def summarize(
    spans: Sequence[Optional[Span]], select: Callable[[int], bool]
) -> SpanSummary:
    """Aggregate the spans whose ``op`` tag satisfies ``select``."""
    summary = SpanSummary()
    own = self_times(spans)
    for span, self_time in zip(spans, own):
        if span is None or not select(span[4]):
            continue
        name = span[0]
        duration = span[2] - span[1]
        summary.total[name] = summary.total.get(name, 0.0) + duration
        summary.self_time[name] = summary.self_time.get(name, 0.0) + self_time
        summary.calls[name] = summary.calls.get(name, 0) + 1
        summary.durations.setdefault(name, []).append(duration)
    return summary
