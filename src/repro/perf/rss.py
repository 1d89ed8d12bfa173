"""Process resident-set-size probes (no external dependencies).

One implementation of the RSS questions the repo keeps asking:

* :func:`rss_bytes` — the process's *current* resident set, read from
  ``/proc/self/statm`` (field 2, in pages).  This is what a live
  sampler wants: it goes down when memory is released.
* :func:`peak_rss_bytes` — the high-water mark since process start,
  from ``resource.getrusage`` (``ru_maxrss``).  This is what a peak
  report wants: it never under-reports a transient spike between
  samples.

Consumer: the :mod:`repro.monitor` resource sampler (live
``monitor.rss`` timeline, per-stage peaks, and a run peak floored by
:func:`peak_rss_bytes`).

On platforms without ``/proc`` the current-RSS probe falls back to the
peak (documented, monotone, still useful for ceilings); ``ru_maxrss``
units differ per platform (KiB on Linux, bytes on macOS) and are
normalised to bytes here.
"""

from __future__ import annotations

import os
import resource
import sys

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


def cpu_seconds() -> float:
    """CPU time (user + system) consumed by this process, in seconds.

    Reads ``/proc/self/stat`` (utime + stime jiffies over the clock
    tick rate); falls back to :func:`os.times` elsewhere.  Used by the
    monitor sampler to derive a CPU-utilisation timeline.
    """
    try:
        with open("/proc/self/stat", "rb") as handle:
            data = handle.read()
        # comm can contain spaces/parens; fields are positional after
        # the closing paren of field 2.
        after = data[data.rindex(b")") + 2 :].split()
        utime, stime = int(after[11]), int(after[12])
        ticks = os.sysconf("SC_CLK_TCK")
        return (utime + stime) / float(ticks)
    except (OSError, ValueError, IndexError, AttributeError):
        times = os.times()
        return float(times.user + times.system)
