"""The telemetry output: tracing spans, QoR metric streams, run reports.

Recording is :mod:`repro.obs`'s job; this package switches the output
on and off (off by default, one flag check per call while off), holds
its three record stores and reads them back:

* **spans** — every ``obs.stage`` interval with its attributes and
  parent link (``with obs.stage("vpr.candidate", cluster=3, ar=1.5):``),
  surviving the V-P&R worker fleet (worker spans are re-parented on
  merge).
* **metric streams** — named time-series of QoR observations
  (``obs.observe("gp.hpwl", value, step=i)``) recording how quality
  *evolved*, not just where it ended.
* **events** — JSON-lines decision log (``obs.event``: cluster formed,
  shape selected, placement converged, worker error) streamed to
  ``events.jsonl`` when an output directory is configured.

A run's records serialise to a :class:`RunReport` (``run.json``:
``telemetry.enable(dir)``, run the flow, ``telemetry.run_report(meta=
...).write(path)``), which :func:`diff_runs` compares against another
run's — the ``repro report diff`` regression gate.
"""

from typing import Optional

from repro import obs
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricRegistry, MetricStream
from repro.telemetry.report import SCHEMA, RunReport, diff_runs, render_html
from repro.telemetry.trace import Tracer, span_tree


def enable(out_dir: Optional[str] = None) -> "obs.Session":
    """Turn telemetry on with fresh, empty record stores.

    ``out_dir`` (optional) enables streaming the event log to
    ``<out_dir>/events.jsonl`` and is where the CLI writes ``run.json``.
    """
    obs.session().open_telemetry(out_dir)
    return obs.session()


def disable() -> None:
    """Turn telemetry off (records are kept; the event file is closed)."""
    obs.session().close_telemetry()


def is_enabled() -> bool:
    """Whether spans, streams and events are being recorded."""
    return obs.session().telemetry_on


def reset() -> None:
    """Clear the recorded spans, streams and events."""
    obs.session().reset_records()


def get_session() -> "obs.Session":
    """The process session; its ``tracer`` / ``metrics`` / ``events`` /
    ``out_dir`` are the telemetry output's stores."""
    return obs.session()


def stream(name: str) -> Optional[MetricStream]:
    """Read back a metric stream."""
    return obs.session().metrics.stream(name)


def run_report(meta=None, qor=None, perf=None, monitor=None) -> RunReport:
    """Snapshot the session's records into a :class:`RunReport`."""
    return RunReport.from_session(
        obs.session(), meta=meta, qor=qor, perf=perf, monitor=monitor
    )


__all__ = [
    "SCHEMA",
    "EventLog",
    "MetricRegistry",
    "RunReport",
    "Tracer",
    "diff_runs",
    "disable",
    "enable",
    "get_session",
    "is_enabled",
    "render_html",
    "reset",
    "run_report",
    "span_tree",
    "stream",
]
