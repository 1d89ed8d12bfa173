"""The monitor output: in-flight progress, resource sampling, ``repro top``.

``repro.telemetry`` records what a run *did*; this package shows what a
run *is doing*.  Recording is :mod:`repro.obs`'s job (``obs.stage`` and
the progress calls ``obs.start_task`` / ``advance`` / ``set_done`` /
``complete``, the fleet's ``obs.worker_beat``); this package switches the output on and off (off by
default, one check per call while off; ``monitor.enable(dir)`` needs a
telemetry out-dir) and holds its dependency-free parts:

* :mod:`repro.monitor.session` — the one in-memory state (one lock)
  and the one daemon thread that, every 0.25 s, takes a sample and
  publishes ``status.json``;
* :mod:`repro.monitor.sampler` — RSS/CPU samples from procfs into
  ``monitor.rss`` / ``monitor.cpu`` metric streams and per-stage
  peak-RSS counters;
* :mod:`repro.monitor.progress` — done/total accounting for the flow's
  bounded loops (V-P&R sweep items, GP iterations, clustering passes)
  with rate + ETA;
* :mod:`repro.monitor.status` — the atomically-replaced ``status.json``
  (schema ``repro.monitor/1``) in the telemetry out-dir;
* :mod:`repro.monitor.top` — the ``repro top RUNDIR`` renderer that
  tails ``status.json`` + ``events.jsonl`` from any process.
"""

from typing import Any, Dict, Optional

from repro import obs
from repro.monitor.progress import ProgressTracker
from repro.monitor.sampler import ResourceSampler
from repro.monitor.session import INTERVAL_S, MonitorSession
from repro.monitor.status import load_status, write_status
from repro.monitor.top import run_top


def enable(out_dir: str, interval: float = INTERVAL_S) -> MonitorSession:
    """Turn the monitor on for a run directory: publish ``status.json``
    now and then every ``interval`` seconds."""
    return obs.session().start_monitor(out_dir, interval)


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
    "MonitorSession",
    "ProgressTracker",
    "ResourceSampler",
    "disable",
    "enable",
    "get_monitor",
    "is_enabled",
    "load_status",
    "run_top",
    "summary",
    "write_status",
]
