"""Resource sampling: RSS + CPU timelines, per-stage peaks.

Each :meth:`ResourceSampler.sample` reads procfs via
:mod:`repro.perf.rss` — the current resident set
(``/proc/self/statm``) and, in one read of ``/proc/self/stat``, the
cumulative process CPU time, system time and minor page faults.  Each
sample becomes one point in the
``monitor.rss`` / ``monitor.cpu`` telemetry metric streams (stepped by
seconds since the sampler was made, so they plot on the same axis as
the QoR streams) and updates:

* the process-wide peak RSS seen by the sampler,
* the peak RSS *per flow stage* (the caller names the active stage),
  later exported as ``monitor.peak_rss.<stage>`` perf counters,
* a bounded in-memory tail of recent samples for ``status.json``'s
  sparkline,
* the system seconds and minor page faults since the sampler was made
  (kernel time that no flow stage names).

The sampler is a plain accumulator: the monitor session's thread
calls it under the session lock.  It is purely observational: it
allocates nothing per sample beyond the stream append, touches no
RNG, and samples its own process only — flow results with the monitor
on are byte-identical to a run with it off (gated by
``benchmarks/bench_monitor_overhead.py``).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.perf.rss import cpu_times, peak_rss_bytes, rss_bytes

#: Samples kept for the ``status.json`` timelines.
TIMELINE_POINTS = 120


class ResourceSampler:
    """RSS/CPU accumulator.

    ``observe`` receives ``(stream_name, value, step)`` per sample —
    the monitor session routes it to ``obs.observe``.
    """

    def __init__(self, observe: Callable[[str, float, float], None]) -> None:
        self.observe = observe
        self._epoch = time.perf_counter()
        self._timeline: Deque[Tuple[float, int, float]] = deque(
            maxlen=TIMELINE_POINTS
        )
        self._stage_peaks: Dict[str, int] = {}
        self._peak_rss = 0
        self._samples = 0
        self._last_cpu: Optional[Tuple[float, float]] = None
        self._start = cpu_times()
        self._kernel = (0.0, 0)  # system seconds, minor faults

    def sample(self, stage: Optional[str]) -> None:
        """Take one sample, attributing its RSS to ``stage`` (if any)."""
        now = time.perf_counter()
        t = now - self._epoch
        rss = rss_bytes()
        times = cpu_times()
        cpu = times.cpu_s
        self._kernel = (
            times.system_s - self._start.system_s,
            times.minor_faults - self._start.minor_faults,
        )
        cpu_pct = 0.0
        if self._last_cpu is not None:
            last_t, last_cpu = self._last_cpu
            dt = now - last_t
            if dt > 0:
                cpu_pct = max(0.0, (cpu - last_cpu) / dt * 100.0)
        self._last_cpu = (now, cpu)
        self._samples += 1
        if rss > self._peak_rss:
            self._peak_rss = rss
        if stage is not None and rss > self._stage_peaks.get(stage, 0):
            self._stage_peaks[stage] = rss
        self._timeline.append((t, rss, cpu_pct))
        self.observe("monitor.rss", float(rss), t)
        self.observe("monitor.cpu", cpu_pct, t)

    # -- views ---------------------------------------------------------
    def resources(self) -> Dict[str, Any]:
        """The live resource block for ``status.json``."""
        timeline = list(self._timeline)
        current = timeline[-1] if timeline else (0.0, 0, 0.0)
        return {
            "rss_bytes": current[1],
            "cpu_percent": current[2],
            "peak_rss_bytes": max(self._peak_rss, peak_rss_bytes()),
            "samples": self._samples,
            "rss_timeline": [[round(t, 3), rss] for t, rss, _ in timeline],
            "cpu_timeline": [
                [round(t, 3), round(pct, 1)] for t, _, pct in timeline
            ],
        }

    def stage_peaks(self) -> Dict[str, int]:
        """Peak RSS (bytes) observed while each flow stage was active."""
        return dict(self._stage_peaks)

    def summary(self) -> Dict[str, Any]:
        """The sampler's part of the ``run.json`` monitor block."""
        return {
            "samples": self._samples,
            "peak_rss_bytes": max(self._peak_rss, peak_rss_bytes()),
            "stage_peak_rss_bytes": dict(self._stage_peaks),
            "system_s": self._kernel[0],
            "minor_faults": self._kernel[1],
        }
