"""The monitor output's state: sampler + progress + status.

:class:`MonitorSession` is the flight recorder proper.  It owns

* a :class:`~repro.monitor.sampler.ResourceSampler` feeding the
  ``monitor.rss`` / ``monitor.cpu`` telemetry streams,
* a :class:`~repro.monitor.progress.ProgressTracker` for the flow's
  bounded loops,
* a :class:`~repro.monitor.status.StatusWriter` publishing
  ``status.json`` on every progress tick, stage edge and sampler sample
  (throttled, atomic),
* the stage history and the worker-heartbeat directory merged into the
  status document.

It records nothing by itself: :mod:`repro.obs` holds it as the process
session's monitor output and tells it which stage was entered and left
(:meth:`enter_stage` / :meth:`exit_stage`) — the stage clock and the
nesting stack live there, not here.  Enabling requires a telemetry
out-dir: the monitor is a view *onto* a recorded run, not a separate
recording.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.monitor.heartbeat import (
    clear_worker_beats,
    heartbeat_dir,
    read_worker_beats,
)
from repro.monitor.progress import ProgressTracker
from repro.monitor.sampler import ResourceSampler
from repro.monitor.status import StatusWriter

#: Nesting levels of ``obs.stage`` the monitor follows.  Two levels are
#: the table ``repro top`` prints (``flow.vpr`` and ``vpr.select``,
#: ``eco.apply`` and ``eco.place``); the per-candidate stages below
#: them would turn the status document into a trace.
STAGE_DEPTH = 2


class MonitorSession:
    """One run's live monitor state (see module docstring).

    ``observe`` is where the sampler's stream points go (the session's
    ``obs.observe``).
    """

    def __init__(
        self,
        out_dir: str,
        observe: Callable[..., None],
        interval: float = 0.25,
        status_interval: float = 0.25,
        timeline_points: int = 120,
    ) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.started_unix = time.time()
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._meta: Dict[str, Any] = {}
        self._state = "running"
        self._error: Optional[str] = None
        self._stage: Optional[str] = None
        self._stage_history: list = []
        self.heartbeats = heartbeat_dir(out_dir)
        self.status = StatusWriter(
            out_dir, self._status_snapshot, min_interval=status_interval
        )
        self.progress = ProgressTracker(on_tick=self.status.refresh)
        self.sampler = ResourceSampler(
            observe=observe,
            stage_of=self.current_stage,
            interval=interval,
            timeline_points=timeline_points,
            on_sample=self.status.refresh,
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        clear_worker_beats(self.heartbeats)
        self.sampler.start()
        self.status.refresh(force=True)

    def stop(self, state: str = "done", error: Optional[str] = None) -> None:
        """Stop sampling and publish the final status document."""
        self.sampler.stop()
        with self._lock:
            self._state = state
            self._error = error
        self.status.refresh(force=True)

    # -- stages --------------------------------------------------------
    def enter_stage(self, name: str) -> Dict[str, Any]:
        """``name`` is now the active stage; returns its history entry.

        The sampler attributes its per-sample peak-RSS accounting to
        the active stage; the status document shows it and the
        per-stage wall-clock history.
        """
        entry = {
            "name": name,
            "state": "running",
            "elapsed_s": 0.0,
            "_started": time.perf_counter(),
        }
        with self._lock:
            self._stage = name
            self._stage_history.append(entry)
        self.status.refresh()
        return entry

    def exit_stage(
        self, entry: Dict[str, Any], elapsed: float, outer: Optional[str]
    ) -> None:
        """Finish ``entry`` after ``elapsed`` seconds; ``outer`` (the
        stage around it, or None) is active again."""
        # Read the sampler's peaks BEFORE taking the session lock:
        # stage_peaks() takes the sampler lock, and the sampler's
        # sample() calls current_stage() — nesting them here in the
        # opposite order is a lock-order inversion that can deadlock
        # against a concurrent sample.
        peak = self.sampler.stage_peaks().get(entry["name"])
        with self._lock:
            self._stage = outer
            entry["state"] = "done"
            entry["elapsed_s"] = elapsed
            if peak is not None:
                entry["peak_rss_bytes"] = peak
        self.status.refresh()

    def current_stage(self) -> Optional[str]:
        """The innermost followed stage (the sampler's attribution key)."""
        return self._stage

    # -- metadata ------------------------------------------------------
    def set_meta(self, **fields: Any) -> None:
        """Attach run context (design, jobs, seed) to the status doc."""
        with self._lock:
            self._meta.update(fields)
        self.status.refresh(force=True)

    # -- views ---------------------------------------------------------
    def _status_snapshot(self) -> Dict[str, Any]:
        now = time.time()
        with self._lock:
            meta = dict(self._meta)
            state = self._state
            error = self._error
            stage = self._stage
            stages = []
            for stored in self._stage_history:
                entry = dict(stored)
                started = entry.pop("_started")
                if entry["state"] == "running":
                    # elapsed_s of a running stage is filled at snapshot
                    # time (the stored entry only finalises on exit).
                    entry["elapsed_s"] = time.perf_counter() - started
                stages.append(entry)
        doc: Dict[str, Any] = {
            "pid": self.pid,
            "state": state,
            "started_unix": self.started_unix,
            "elapsed_s": time.perf_counter() - self._epoch,
            "meta": meta,
            "stage": stage,
            "stages": stages,
            "progress": self.progress.snapshots(),
            "resources": self.sampler.resources(),
            "workers": read_worker_beats(self.heartbeats, now=now),
        }
        if error:
            doc["error"] = error
        return doc

    def summary(self) -> Dict[str, Any]:
        """The post-run block embedded in ``run.json`` / the report."""
        out = self.sampler.summary()
        out["progress"] = self.progress.records()
        out["status_writes"] = self.status.writes
        return out
