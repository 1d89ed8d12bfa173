"""Progress accounting for the flow's known-cardinality loops.

A :class:`ProgressTask` tracks one bounded loop — the V-P&R
(cluster, candidate) sweep, global-placement iterations, multilevel
coarsening passes — as ``done / total`` with a rate and an ETA derived
from the observed pace.  The :class:`ProgressTracker` holds all live
tasks and enforces the accounting invariants the tests pin down:

* ``done`` never exceeds ``total`` and never decreases;
* :meth:`ProgressTask.record` is deterministic — the identity fields
  (name, unit, total, done) carry no timing, so serial and parallel
  runs of the same design finish with identical records;
* completing a task clamps ``total`` down to ``done`` for loops with
  an early exit (a placer that converges before ``max_iterations``
  reports 14/14, not 14/44).

Timing fields (rate, ETA, elapsed) live only in the *snapshot* used by
``status.json`` — they are presentation, not accounting.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


class ProgressTask:
    """One bounded loop's ``done / total`` state."""

    __slots__ = ("name", "unit", "total", "done", "started", "updated", "finished")

    def __init__(self, name: str, total: int, unit: str = "items") -> None:
        self.name = name
        self.unit = unit
        self.total = max(0, int(total))
        self.done = 0
        self.started = time.perf_counter()
        self.updated = self.started
        self.finished: Optional[float] = None

    # -- accounting ----------------------------------------------------
    def advance(self, n: int = 1) -> None:
        """Add ``n`` completed items (clamped into ``[done, total]``)."""
        if n > 0:
            self.done = min(self.total, self.done + int(n))
            self.updated = time.perf_counter()

    def set_done(self, done: int) -> None:
        """Raise ``done`` to an absolute value (never decreases)."""
        clamped = min(self.total, int(done))
        if clamped > self.done:
            self.done = clamped
            self.updated = time.perf_counter()

    def complete(self) -> None:
        """Mark the loop finished; an early exit clamps ``total``."""
        self.total = self.done
        self.finished = time.perf_counter()
        self.updated = self.finished

    # -- views ---------------------------------------------------------
    @property
    def is_finished(self) -> bool:
        return self.finished is not None

    @property
    def rate(self) -> Optional[float]:
        """Items per second at the observed pace (None before data)."""
        end = self.finished if self.finished is not None else self.updated
        elapsed = end - self.started
        if self.done <= 0 or elapsed <= 0:
            return None
        return self.done / elapsed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Seconds to completion at the observed pace."""
        if self.is_finished:
            return 0.0
        rate = self.rate
        if rate is None or rate <= 0:
            return None
        return (self.total - self.done) / rate

    def record(self) -> Dict[str, Any]:
        """The deterministic accounting record (no timing fields)."""
        return {
            "name": self.name,
            "unit": self.unit,
            "total": self.total,
            "done": self.done,
            "finished": self.is_finished,
        }

    def snapshot(self) -> Dict[str, Any]:
        """The live view for ``status.json`` (adds pace + timing)."""
        out = self.record()
        out["elapsed_s"] = (
            (self.finished if self.finished is not None else time.perf_counter())
            - self.started
        )
        rate = self.rate
        eta = self.eta_seconds
        if rate is not None:
            out["rate_per_s"] = rate
        if eta is not None:
            out["eta_s"] = eta
        return out


class ProgressTracker:
    """Registry of live progress tasks.

    Holds no lock: the monitor session mutates and reads it under its
    own.
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, ProgressTask] = {}

    # -- mutations -----------------------------------------------------
    def start(self, name: str, total: int, unit: str = "items") -> ProgressTask:
        """Begin (or restart) tracking a bounded loop."""
        task = self._tasks[name] = ProgressTask(name, total, unit)
        return task

    def advance(self, name: str, n: int = 1) -> None:
        """Add completed items to ``name`` (no-op for unknown tasks, so
        shared loop bodies can tick unconditionally)."""
        task = self._tasks.get(name)
        if task is not None:
            task.advance(n)

    def set_done(self, name: str, done: int) -> None:
        task = self._tasks.get(name)
        if task is not None:
            task.set_done(done)

    def complete(self, name: str) -> None:
        """Finish a task (clamping ``total`` on early exit)."""
        task = self._tasks.get(name)
        if task is not None:
            task.complete()

    # -- views ---------------------------------------------------------
    def get(self, name: str) -> Optional[ProgressTask]:
        return self._tasks.get(name)

    def records(self) -> List[Dict[str, Any]]:
        """Deterministic records of every task, in start order."""
        return [t.record() for t in self._tasks.values()]

    def snapshots(self) -> List[Dict[str, Any]]:
        return [t.snapshot() for t in self._tasks.values()]
