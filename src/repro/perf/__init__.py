"""The timers output: stage-time aggregates, counters, the perf report.

Recording is :mod:`repro.obs`'s job (``obs.stage`` / ``obs.count``);
this package switches the output on and off (:func:`enable` … — off by
default, and while off a stage keeps no aggregate and ``obs.count`` is
one flag check), stores it (:class:`PerfRegistry`) and reads it back:
:func:`report` gives the JSON-serialisable :class:`PerfReport` the
flow/CLI emit (``--perf-report``).  :func:`cprofile_to` optionally
wraps a block in :mod:`cProfile` and dumps pstats to disk.  ::

    perf.enable()
    with obs.stage("flow.vpr"):
        obs.count("steiner.rsmt.hit")
    perf.report().write("perf.json")
"""

from repro import obs
from repro.perf.profile import cprofile_to
from repro.perf.report import PerfReport
from repro.perf.rss import cpu_seconds, peak_rss_bytes, rss_bytes
from repro.perf.timers import PerfRegistry


def enable() -> None:
    """Keep stage aggregates and counters from now on."""
    obs.session().timers_on = True


def disable() -> None:
    """Stop recording (what was recorded is kept)."""
    obs.session().timers_on = False


def is_enabled() -> bool:
    """Whether stage aggregates and counters are being kept."""
    return obs.session().timers_on


def reset() -> None:
    """Drop all recorded stages and counters."""
    obs.session().timers.reset()


def counter_value(name: str) -> int:
    """Current value of a counter (0 when never incremented)."""
    return obs.session().timers.counter_value(name)


def report(meta=None) -> PerfReport:
    """Snapshot the session's registry into a :class:`PerfReport`.

    ``meta`` is free-form run context recorded in the report (design
    name, jobs, seed, ...).
    """
    return PerfReport.from_registry(obs.session().timers, meta=meta)


__all__ = [
    "PerfRegistry",
    "PerfReport",
    "cprofile_to",
    "counter_value",
    "cpu_seconds",
    "disable",
    "enable",
    "is_enabled",
    "peak_rss_bytes",
    "report",
    "reset",
    "rss_bytes",
]
