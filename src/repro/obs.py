"""One stage clock, one recording session.

Everything instrumented code may call to record something is here:

* :func:`stage` — ``with obs.stage("flow.vpr", selector="vpr") as st:``
  reads the clock once on entry and once on exit.  That one interval
  is ``st.elapsed`` (where every ``runtimes[...]`` value comes from,
  with every output off), and feeds whichever outputs were on when the
  stage was entered: the stage aggregate of the perf report
  (:mod:`repro.perf`), a span of the run report (:mod:`repro.telemetry`)
  and the stage history of ``status.json`` (:mod:`repro.monitor`).
* :func:`count`, :func:`observe`, :func:`event` — counters, QoR stream
  points and decision-log events; one flag check while their output is
  off.
* :func:`start_task` / :func:`advance` / :func:`set_done` /
  :func:`complete` / :func:`set_meta` / :func:`worker_beat` — live
  progress, run context and fleet worker liveness.

The three outputs are fixed fields of the one process
:class:`Session`, which also keeps the one per-thread nesting stack the
perf path (``flow.vpr/vpr.select``), the span parent id and the live
"current stage" are derived from.  ``repro.perf`` / ``repro.telemetry``
/ ``repro.monitor`` switch the outputs on and off and read them; they
record nothing.

Two more things follow the session: the worker round trip
(:func:`worker_descriptor` → :func:`adopt_worker` →
:func:`worker_payload` → :func:`merge_worker`) and the run lifecycle
of a CLI command (:func:`run`).
"""

from __future__ import annotations

import contextlib
import os
import threading
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from repro.monitor.session import INTERVAL_S, STAGE_DEPTH, MonitorSession
from repro.perf.report import PerfReport
from repro.perf.timers import PerfRegistry
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.report import RunReport, render_html
from repro.telemetry.trace import Tracer


class stage:
    """Time a block: ``with obs.stage(name, **attrs) as st``.

    ``st.elapsed`` is the block's wall-clock seconds (0.0 until it has
    run); ``attrs`` go on the span.
    """

    __slots__ = (
        "name", "attrs", "elapsed", "_start", "_session", "_path", "_span_id", "_entry"
    )

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self.elapsed = 0.0
        self._session: Optional[Session] = None

    def __enter__(self) -> "stage":
        session = _SESSION
        if session.timers_on or session.telemetry_on or session.monitor is not None:
            session._enter(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = elapsed = perf_counter() - self._start
        session = self._session
        if session is not None:
            self._session = None
            session._exit(self, elapsed, exc_type)


class Session:
    """The process's recording state: three outputs, one nesting stack.

    ``timers`` (with ``timers_on``) is the perf output; ``tracer`` /
    ``metrics`` / ``events`` / ``out_dir`` (with ``telemetry_on``) are
    the telemetry output; ``monitor`` (None while off) is the live
    monitor.  A stage feeds the outputs that were on when it was
    entered.
    """

    def __init__(self) -> None:
        self.timers = PerfRegistry()
        self.timers_on = False
        self.telemetry_on = False
        self.monitor: Optional[MonitorSession] = None
        self._local = threading.local()
        self._new_records(None)

    # -- switches ------------------------------------------------------
    def _new_records(self, out_dir: Optional[str]) -> None:
        self.epoch = perf_counter()
        self.out_dir = out_dir
        self.tracer = Tracer(epoch=self.epoch)
        self.metrics = MetricRegistry()
        events_path = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            events_path = os.path.join(out_dir, "events.jsonl")
        self.events = EventLog(self.epoch, path=events_path)

    def open_telemetry(self, out_dir: Optional[str] = None) -> None:
        """Record spans, streams and events into fresh stores; with an
        ``out_dir`` the event log also streams to ``events.jsonl``."""
        self.events.close()
        self._new_records(out_dir)
        self.telemetry_on = True

    def close_telemetry(self) -> None:
        """Stop recording (records are kept; the event file is closed)."""
        self.telemetry_on = False
        self.events.close()

    def reset_records(self) -> None:
        """Clear the recorded spans, streams and events."""
        self.tracer.reset()
        self.metrics.reset()
        self.events.reset()

    def start_monitor(
        self, out_dir: str, interval: float = INTERVAL_S
    ) -> MonitorSession:
        """Start the live monitor on a run directory (replacing one
        already running); its samples go to :func:`observe`."""
        self.stop_monitor()
        self.monitor = MonitorSession(out_dir, observe, interval)
        self.monitor.start()
        return self.monitor

    def stop_monitor(self, state: str = "done", error: Optional[str] = None) -> None:
        """Stop the monitor, publishing a final ``state`` document."""
        live, self.monitor = self.monitor, None
        if live is None:
            return
        live.stop(state=state, error=error)
        if self.timers_on:
            for name, peak in sorted(live.sampler.stage_peaks().items()):
                self.timers.count(f"monitor.peak_rss.{name}", peak)

    # -- the one stack -------------------------------------------------
    def _stack(self) -> List[stage]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _enter(self, st: stage) -> None:
        stack = self._stack()
        st._session = self
        st._path = st._span_id = st._entry = None
        if self.timers_on:
            outer = stack[-1]._path if stack else None
            st._path = f"{outer}/{st.name}" if outer else st.name
        if self.telemetry_on:
            st._span_id = self.tracer.alloc_id()
        live = self.monitor
        if live is not None and len(stack) < STAGE_DEPTH:
            st._entry = live.enter_stage(st.name)
        stack.append(st)

    def _exit(self, st: stage, elapsed: float, exc_type) -> None:
        stack = self._stack()
        stack.pop()
        outer = stack[-1] if stack else None
        if st._path is not None:
            self.timers.add(st._path, elapsed)
        if st._span_id is not None:
            if exc_type is not None:
                st.attrs["error"] = exc_type.__name__
            parent = outer._span_id if outer else None
            self.tracer.add(st._span_id, parent, st.name, st._start, elapsed, st.attrs)
        live = self.monitor
        if st._entry is not None and live is not None:
            live.exit_stage(st._entry, elapsed, outer.name if outer else None)


_SESSION = Session()


def session() -> Session:
    """The process session (what the three packages switch and read)."""
    return _SESSION


# -- recording calls ----------------------------------------------------
def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n`` (no-op while perf is off)."""
    if _SESSION.timers_on:
        _SESSION.timers.count(name, n)


def observe(
    name: str, value: float, step: Optional[float] = None, **attrs: Any
) -> None:
    """Observe one point of a QoR metric stream (no-op while telemetry
    is off)."""
    if _SESSION.telemetry_on:
        _SESSION.metrics.observe(name, value, step=step, **attrs)


def event(event_type: str, **fields: Any) -> None:
    """Emit one structured event (no-op while telemetry is off)."""
    if _SESSION.telemetry_on:
        _SESSION.events.emit(event_type, **fields)


def start_task(name: str, total: int, unit: str = "items") -> None:
    """Begin tracking a bounded loop (no-op while the monitor is off)."""
    live = _SESSION.monitor
    if live is not None:
        live.start_task(name, total, unit=unit)


def advance(name: str, n: int = 1) -> None:
    """Add completed items to a loop (no-op while the monitor is off)."""
    live = _SESSION.monitor
    if live is not None:
        live.advance(name, n)


def set_done(name: str, done: int) -> None:
    """Raise a loop's absolute completion count (no-op while off)."""
    live = _SESSION.monitor
    if live is not None:
        live.set_done(name, done)


def complete(name: str) -> None:
    """Finish a loop (no-op while the monitor is off)."""
    live = _SESSION.monitor
    if live is not None:
        live.complete(name)


def set_meta(**fields: Any) -> None:
    """Attach run context (design, jobs, seed) to the status document."""
    live = _SESSION.monitor
    if live is not None:
        live.set_meta(**fields)


def worker_beat(label: str, phase: str, **fields: Any) -> None:
    """Record fleet worker ``label``'s latest beat for the status
    document (no-op while the monitor is off)."""
    live = _SESSION.monitor
    if live is not None:
        live.worker_beat(label, phase, **fields)


# -- worker round trip --------------------------------------------------
def worker_descriptor() -> Dict[str, Any]:
    """What a worker process must switch on to record like this one
    (picklable; ships once inside the sweep state)."""
    return {"timers": _SESSION.timers_on, "telemetry": _SESSION.telemetry_on}


def adopt_worker(descriptor: Dict[str, Any]) -> None:
    """Worker side, once per sweep state: record what the parent
    records, starting empty.  (A worker's liveness beats travel back
    over its fleet socket to the parent's :func:`worker_beat`.)"""
    session = _SESSION
    # A fork-inherited session holds the parent's open stages, its
    # monitor (ours to neither feed nor publish), its records and —
    # when streaming — a duplicate handle on the parent's events.jsonl;
    # close ours so worker events never interleave into that file.
    session._local = threading.local()
    session.monitor = None
    session.timers_on = bool(descriptor["timers"])
    session.timers.reset()
    session.telemetry_on = bool(descriptor["telemetry"])
    session.events.close()
    session.reset_records()


def worker_payload() -> Optional[Dict[str, Any]]:
    """Worker side: export-and-clear what this process recorded — a
    picklable ``{"counters", "spans", "metrics", "events"}`` (the keys
    of the outputs that are on), None when none is."""
    session = _SESSION
    payload: Dict[str, Any] = {}
    if session.timers_on:
        payload["counters"] = session.timers.snapshot()["counters"]
        session.timers.reset()
    if session.telemetry_on:
        payload["spans"] = session.tracer.export()
        payload["metrics"] = session.metrics.export()
        payload["events"] = session.events.export()
        session.reset_records()
    return payload or None


def merge_worker(payload: Optional[Dict[str, Any]]) -> None:
    """Parent side: fold a worker payload in; worker root spans are
    re-parented under the stage open on the calling thread."""
    session = _SESSION
    if not payload:
        return
    if session.timers_on:
        session.timers.merge_counters(payload.get("counters") or {})
    if session.telemetry_on:
        stack = session._stack()
        session.tracer.merge(
            payload.get("spans") or [],
            parent_id=stack[-1]._span_id if stack else None,
        )
        session.metrics.merge(payload.get("metrics") or {})
        session.events.merge(payload.get("events") or [])


# -- run lifecycle ------------------------------------------------------
class Run:
    """What a command tells :func:`run` about itself (``meta``, ``qor``)
    and, after the block, what was recorded (``perf``, ``report``)."""

    def __init__(self, meta: Dict[str, Any]) -> None:
        self.meta = meta
        self.qor: Optional[Dict[str, Any]] = None
        self.perf: Optional[PerfReport] = None
        self.report: Optional[RunReport] = None


@contextlib.contextmanager
def run(
    perf_report: Optional[str] = None,
    telemetry_dir: Optional[str] = None,
    monitor: bool = False,
    **config: Any,
) -> Iterator[Run]:
    """The recording lifecycle of one CLI command.

    Turns on what the flags ask for — on a fresh session, so the
    process's own instrumentation state is untouched and back in place
    on every exit path — logs ``config`` as the ``run.config`` event
    (it also starts the reports' and the status document's ``meta``),
    and when the block finishes writes ``perf_report`` and
    ``telemetry_dir``'s ``run.json`` / ``report.html``.  When it raises,
    the monitor's final ``status.json`` reads ``failed`` with the error
    and no report is written.  ``monitor`` needs ``telemetry_dir``.
    """
    global _SESSION
    record = Run(dict(config))
    if not (perf_report or telemetry_dir):
        yield record
        return
    previous = _SESSION
    _SESSION = session = Session()
    # Telemetry runs embed the perf report in run.json.
    session.timers_on = True
    try:
        if telemetry_dir:
            session.open_telemetry(telemetry_dir)
            event("run.config", **config)
        if monitor:
            session.start_monitor(telemetry_dir).set_meta(**config)
        try:
            yield record
        except BaseException as exc:
            # Leave a final "failed" status.json behind so `repro top`
            # (and anything polling the run) sees why the updates stopped.
            session.stop_monitor(state="failed", error=repr(exc))
            raise
        watched = session.monitor
        session.stop_monitor()
        record.perf = PerfReport.from_registry(session.timers, meta=record.meta)
        if perf_report:
            record.perf.write(perf_report)
        if telemetry_dir:
            record.report = RunReport.from_session(
                session,
                meta=record.meta,
                qor=record.qor,
                perf=record.perf.to_dict(),
                monitor=watched.summary() if watched is not None else None,
            )
            record.report.write(os.path.join(telemetry_dir, "run.json"))
            render_html(record.report, os.path.join(telemetry_dir, "report.html"))
    finally:
        session.close_telemetry()
        _SESSION = previous
