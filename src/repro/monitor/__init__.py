"""The monitor output: in-flight progress, resource sampling, ``repro top``.

``repro.telemetry`` records what a run *did*; this package shows what a
run *is doing*.  Recording is :mod:`repro.obs`'s job (``obs.stage`` and
the progress calls ``obs.start_task`` / ``advance`` / ``set_done`` /
``complete``); this package switches the output on and off (off by
default, one check per call while off; ``monitor.enable(dir)`` needs a
telemetry out-dir) and holds its dependency-free parts:

* :mod:`repro.monitor.sampler` — a background thread sampling RSS/CPU
  from procfs into ``monitor.rss`` / ``monitor.cpu`` metric streams and
  per-stage peak-RSS counters;
* :mod:`repro.monitor.progress` — done/total accounting for the flow's
  bounded loops (V-P&R sweep items, GP iterations, clustering passes)
  with rate + ETA;
* :mod:`repro.monitor.status` — an atomically-replaced ``status.json``
  (schema ``repro.monitor/1``) in the telemetry out-dir, refreshed on
  every progress tick;
* :mod:`repro.monitor.top` — the ``repro top RUNDIR`` renderer that
  tails ``status.json`` + ``events.jsonl`` from any process.
"""

from typing import Any, Dict, Optional

from repro import obs
from repro.monitor.heartbeat import (
    HEARTBEAT_DIRNAME,
    HeartbeatWriter,
    clear_worker_beats,
    heartbeat_dir,
    read_worker_beats,
)
from repro.monitor.progress import ProgressTask, ProgressTracker
from repro.monitor.sampler import ResourceSampler
from repro.monitor.session import MonitorSession
from repro.monitor.status import (
    STATUS_FILENAME,
    STATUS_SCHEMA,
    StatusWriter,
    load_status,
    status_path,
)
from repro.monitor.top import render, render_dir, run_top, sparkline


def enable(out_dir: str, **intervals: float) -> MonitorSession:
    """Turn the monitor on for a run directory and start sampling
    (``intervals``: see :class:`MonitorSession`)."""
    return obs.session().start_monitor(out_dir, **intervals)


def disable(state: str = "done", error: Optional[str] = None) -> None:
    """Stop the monitor, publishing a final ``state`` document."""
    obs.session().stop_monitor(state=state, error=error)


def is_enabled() -> bool:
    return obs.session().monitor is not None


def get_monitor() -> Optional[MonitorSession]:
    """The session's monitor state (None while disabled)."""
    return obs.session().monitor


def summary() -> Optional[Dict[str, Any]]:
    """The run.json monitor block (None while disabled)."""
    live = obs.session().monitor
    return None if live is None else live.summary()


__all__ = [
    "HEARTBEAT_DIRNAME",
    "STATUS_FILENAME",
    "STATUS_SCHEMA",
    "HeartbeatWriter",
    "MonitorSession",
    "ProgressTask",
    "ProgressTracker",
    "ResourceSampler",
    "StatusWriter",
    "clear_worker_beats",
    "disable",
    "enable",
    "get_monitor",
    "heartbeat_dir",
    "is_enabled",
    "load_status",
    "read_worker_beats",
    "render",
    "render_dir",
    "run_top",
    "sparkline",
    "status_path",
    "summary",
]
