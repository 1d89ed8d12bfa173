"""Stage-time aggregates and event counters: the timers output's store.

A :class:`PerfRegistry` aggregates wall-clock per *stage path* and
integer *counters* (cache hits, work-item counts, payload sizes).  It
is a passive store: :mod:`repro.obs` owns the clock, the nesting stack
the paths are built from (``flow.vpr/vpr.select/vpr.sweep``) and the
on/off switch, and adds one finished interval at a time, so a report
reads like a call tree without any profiler overhead.  Worker
processes of the parallel V-P&R engine each carry their own registry;
their counters travel back with the results and are folded into the
parent's via :meth:`PerfRegistry.merge_counters`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict


@dataclass
class StageStat:
    """Aggregate timing of one stage.

    Attributes:
        total: Summed wall-clock seconds.
        calls: Number of enter/exit pairs.
        min: Fastest single call (seconds).
        max: Slowest single call (seconds).
    """

    total: float = 0.0
    calls: int = 0
    min: float = float("inf")
    max: float = 0.0

    def add(self, seconds: float) -> None:
        """Fold one measured call into the aggregate."""
        self.total += seconds
        self.calls += 1
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds


class PerfRegistry:
    """Thread-safe store of stage timings and counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: Dict[str, StageStat] = {}
        self._counters: Dict[str, int] = {}

    def add(self, path: str, seconds: float) -> None:
        """Fold one finished interval into the stage at ``path``."""
        with self._lock:
            stat = self._stages.get(path)
            if stat is None:
                stat = self._stages[path] = StageStat()
            stat.add(seconds)

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def merge_counters(self, counters: Dict[str, int]) -> None:
        """Fold a worker process's counter snapshot into this registry."""
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + int(value)

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict copy of all stages and counters."""
        with self._lock:
            stages = {
                name: {
                    "total_s": stat.total,
                    "calls": stat.calls,
                    "mean_s": stat.total / stat.calls if stat.calls else 0.0,
                    "min_s": stat.min if stat.calls else 0.0,
                    "max_s": stat.max,
                }
                for name, stat in self._stages.items()
            }
            counters = dict(self._counters)
        return {"stages": stages, "counters": counters}

    def reset(self) -> None:
        """Drop all recorded stages and counters."""
        with self._lock:
            self._stages.clear()
            self._counters.clear()
