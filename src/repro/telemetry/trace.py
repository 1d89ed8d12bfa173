"""Span records: a nested wall-clock trace of what the flow did.

A :class:`Tracer` stores *spans* — named intervals with attributes and
parent/child links — as a flat list of records; the run report folds
them back into a tree.  Spans complement the :mod:`repro.perf` stage
aggregates: an aggregate sums all calls under one path, a span is one
concrete interval ("V-P&R candidate AR=1.5 on cluster 3 took 80 ms")
with its own attributes.

The tracer is a passive store: :mod:`repro.obs` owns the clock and the
per-thread nesting stack the parent links come from, allocates an id
per stage and adds the finished record.  Fleet workers carry their
own tracer; their finished records travel back with the results and
are re-parented under the parent process's active span via
:meth:`Tracer.merge` (fresh span ids are allocated, so merged ids
never collide).

``time.perf_counter`` is CLOCK_MONOTONIC on Linux and therefore
comparable across forked processes, which keeps worker span timestamps
on the same axis as the parent's.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional


class Tracer:
    """Thread-safe store of finished span records.

    A *record* is a plain dict (JSON-ready)::

        {"id": 7, "parent": 3, "name": "vpr.candidate",
         "t0": 12.031, "dur": 0.080, "attrs": {"cluster": 3, "ar": 1.5}}

    ``t0`` is seconds since the tracer's epoch (session start).
    """

    def __init__(self, epoch: Optional[float] = None) -> None:
        self.epoch = time.perf_counter() if epoch is None else epoch
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []
        self._next_id = 0

    def alloc_id(self) -> int:
        """A span id no other record of this tracer has."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def add(
        self,
        span_id: int,
        parent: Optional[int],
        name: str,
        start: float,
        dur: float,
        attrs: Dict[str, Any],
    ) -> None:
        """Store one finished span (``start`` is a ``perf_counter``
        reading; the record keeps it relative to the epoch)."""
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "t0": start - self.epoch,
            "dur": dur,
            "attrs": attrs,
        }
        with self._lock:
            self._records.append(record)

    def export(self) -> List[Dict[str, Any]]:
        """Copy of the finished records (completion order)."""
        with self._lock:
            return [dict(r, attrs=dict(r["attrs"])) for r in self._records]

    def merge(
        self,
        records: List[Dict[str, Any]],
        parent_id: Optional[int] = None,
        extra_attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold another tracer's exported records into this one.

        Every record gets a fresh id (two workers can both have span 0);
        internal parent links are remapped, and records whose parent is
        unknown (a worker's root spans) are re-parented under
        ``parent_id`` — typically the parent process's span that was
        active when the worker results were gathered.
        """
        if not records:
            return
        id_map = {r["id"]: self.alloc_id() for r in records}
        remapped = []
        for r in records:
            attrs = dict(r.get("attrs") or {})
            if extra_attrs:
                attrs.update(extra_attrs)
            remapped.append(
                {
                    "id": id_map[r["id"]],
                    "parent": id_map.get(r.get("parent"), parent_id),
                    "name": r["name"],
                    "t0": r["t0"],
                    "dur": r["dur"],
                    "attrs": attrs,
                }
            )
        with self._lock:
            self._records.extend(remapped)

    def reset(self) -> None:
        """Drop all records (spans still open are stored on exit)."""
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def span_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Fold flat records into a forest of ``{**record, children: []}``.

    Children are ordered by start time; records referencing a missing
    parent (e.g. after a mid-run reset) surface as roots.
    """
    nodes = {r["id"]: dict(r, children=[]) for r in records}
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = nodes.get(node["parent"])
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: n["t0"])
    roots.sort(key=lambda n: n["t0"])
    return roots
