"""Process resident-set-size probes (no external dependencies).

One implementation of the RSS questions the repo keeps asking:

* :func:`rss_bytes` — the process's *current* resident set, read from
  ``/proc/self/statm`` (field 2, in pages).  This is what a live
  sampler wants: it goes down when memory is released.
* :func:`peak_rss_bytes` — the high-water mark since process start,
  from ``resource.getrusage`` (``ru_maxrss``).  This is what a peak
  report wants: it never under-reports a transient spike between
  samples.

* :func:`cpu_times` — cumulative CPU seconds, system seconds and minor
  page faults, from one read of ``/proc/self/stat``.

Consumer: the :mod:`repro.monitor` resource sampler (live
``monitor.rss`` / ``monitor.cpu`` timelines, per-stage peaks, a run
peak floored by :func:`peak_rss_bytes`, and the run's kernel time).

On platforms without ``/proc`` the current-RSS probe falls back to the
peak (documented, monotone, still useful for ceilings); ``ru_maxrss``
units differ per platform (KiB on Linux, bytes on macOS) and are
normalised to bytes here.
"""

from __future__ import annotations

import os
import resource
import sys
from typing import NamedTuple

_STATM_PATH = "/proc/self/statm"

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover - exotic host
    _PAGE_SIZE = 4096


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; both are
    normalised to bytes.  Monotone over the process lifetime.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - mac only
        return int(peak)
    return int(peak) * 1024


def rss_bytes() -> int:
    """Current resident set size of this process, in bytes.

    Reads ``/proc/self/statm`` (second field, resident pages).  On
    hosts without ``/proc`` this degrades to :func:`peak_rss_bytes`
    (an upper bound that never goes down).
    """
    try:
        with open(_STATM_PATH, "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):  # pragma: no cover - no /proc
        return peak_rss_bytes()


class CpuTimes(NamedTuple):
    """Cumulative CPU time and minor page faults of this process."""

    cpu_s: float  #: user + system seconds
    system_s: float  #: system (kernel) seconds alone
    minor_faults: int  #: page faults served without I/O


def cpu_times() -> CpuTimes:
    """One read of this process's CPU seconds and minor faults.

    Reads ``/proc/self/stat`` (minflt, utime and stime; times in clock
    ticks); falls back to :func:`resource.getrusage` elsewhere.  Used by
    the monitor sampler for its CPU-utilisation timeline and its
    kernel-time totals.
    """
    try:
        with open("/proc/self/stat", "rb") as handle:
            data = handle.read()
        # comm can contain spaces/parens; fields are positional after
        # the closing paren of field 2.
        after = data[data.rindex(b")") + 2 :].split()
        minflt, utime, stime = int(after[7]), int(after[11]), int(after[12])
        ticks = float(os.sysconf("SC_CLK_TCK"))
        return CpuTimes((utime + stime) / ticks, stime / ticks, minflt)
    except (OSError, ValueError, IndexError, AttributeError):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return CpuTimes(
            usage.ru_utime + usage.ru_stime, usage.ru_stime, usage.ru_minflt
        )
