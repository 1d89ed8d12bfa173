"""The monitor output's state and its one writer.

:class:`MonitorSession` is the flight recorder proper.  Under one lock
it keeps

* a :class:`~repro.monitor.sampler.ResourceSampler` feeding the
  ``monitor.rss`` / ``monitor.cpu`` telemetry streams,
* a :class:`~repro.monitor.progress.ProgressTracker` for the flow's
  bounded loops,
* the stage history and the run meta,
* the last beat of every fleet worker, by label.

Recording calls — stage edges, progress, meta, worker beats — touch
that memory only.  One daemon thread ticks every ``interval``: a tick
takes one sample and publishes ``status.json``.  :meth:`start` and
:meth:`stop` each take one tick synchronously (the first and the final
document), so the published document is at most one interval stale.

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

from repro.monitor.progress import ProgressTracker
from repro.monitor.sampler import ResourceSampler
from repro.monitor.status import write_status

#: Seconds between ticks (one sample + one ``status.json``).
INTERVAL_S = 0.25

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
        interval: float = INTERVAL_S,
    ) -> None:
        self.out_dir = out_dir
        self.interval = max(0.01, float(interval))
        self.pid = os.getpid()
        self.started_unix = time.time()
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._halt = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._meta: Dict[str, Any] = {}
        self._state = "running"
        self._error: Optional[str] = None
        self._stage: Optional[str] = None
        self._stage_history: list = []
        self._workers: Dict[str, Dict[str, Any]] = {}
        #: Status documents published so far (one per tick).
        self.ticks = 0
        self.progress = ProgressTracker()
        self.sampler = ResourceSampler(observe)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Publish the first document and start the writer thread."""
        self.tick()
        self._thread = threading.Thread(
            target=self._run, name="repro-monitor", daemon=True
        )
        self._thread.start()

    def stop(self, state: str = "done", error: Optional[str] = None) -> None:
        """Stop the writer thread and publish the final document."""
        self._halt.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            self._state = state
            self._error = error
        self.tick()

    def _run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.tick()
            except Exception:  # pragma: no cover - never kill the run
                pass

    def tick(self) -> None:
        """Take one sample and publish ``status.json``."""
        with self._lock:
            self.sampler.sample(self._stage)
            doc = self._status_doc()
            self.ticks += 1
        try:
            write_status(self.out_dir, doc)
        except OSError:  # pragma: no cover - status is best-effort
            pass

    # -- recording -----------------------------------------------------
    def enter_stage(self, name: str) -> Dict[str, Any]:
        """``name`` is now the active stage; returns its history entry.

        Samples attribute their peak RSS to the active stage; the
        status document shows it and the per-stage wall-clock history.
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
        return entry

    def exit_stage(
        self, entry: Dict[str, Any], elapsed: float, outer: Optional[str]
    ) -> None:
        """Finish ``entry`` after ``elapsed`` seconds; ``outer`` (the
        stage around it, or None) is active again."""
        with self._lock:
            self._stage = outer
            entry["state"] = "done"
            entry["elapsed_s"] = elapsed
            peak = self.sampler.stage_peaks().get(entry["name"])
            if peak is not None:
                entry["peak_rss_bytes"] = peak

    def current_stage(self) -> Optional[str]:
        """The innermost followed stage (the samples' attribution key)."""
        return self._stage

    def start_task(self, name: str, total: int, unit: str = "items") -> None:
        with self._lock:
            self.progress.start(name, total, unit=unit)

    def advance(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.progress.advance(name, n)

    def set_done(self, name: str, done: int) -> None:
        with self._lock:
            self.progress.set_done(name, done)

    def complete(self, name: str) -> None:
        with self._lock:
            self.progress.complete(name)

    def set_meta(self, **fields: Any) -> None:
        """Attach run context (design, jobs, seed) to the status doc."""
        with self._lock:
            self._meta.update(fields)

    def worker_beat(self, label: str, phase: str, **fields: Any) -> None:
        """Keep ``label``'s latest beat (stamped now) for the status
        document's ``workers`` block."""
        beat = dict(fields, phase=phase, t=time.time())
        with self._lock:
            self._workers[label] = beat

    # -- views ---------------------------------------------------------
    def _status_doc(self) -> Dict[str, Any]:
        """The status document (called under the lock)."""
        now = time.perf_counter()
        wall = time.time()
        stages = []
        for stored in self._stage_history:
            entry = dict(stored)
            started = entry.pop("_started")
            if entry["state"] == "running":
                # elapsed_s of a running stage is filled at publish
                # time (the stored entry only finalises on exit).
                entry["elapsed_s"] = now - started
            stages.append(entry)
        doc: Dict[str, Any] = {
            "pid": self.pid,
            "state": self._state,
            "started_unix": self.started_unix,
            "elapsed_s": now - self._epoch,
            "meta": dict(self._meta),
            "stage": self._stage,
            "stages": stages,
            "progress": self.progress.snapshots(),
            "resources": self.sampler.resources(),
            "workers": [
                dict(beat, age_s=max(0.0, wall - beat["t"]))
                for _, beat in sorted(self._workers.items())
            ],
        }
        if self._error:
            doc["error"] = self._error
        return doc

    def summary(self) -> Dict[str, Any]:
        """The post-run block embedded in ``run.json`` / the report."""
        with self._lock:
            out = self.sampler.summary()
            out["interval_s"] = self.interval
            out["progress"] = self.progress.records()
            out["status_writes"] = self.ticks
        return out
