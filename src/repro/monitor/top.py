"""``repro top``: a live single-screen view of a running flow.

The viewer is a *separate process* from the flow: it tails the run
directory's ``status.json`` (atomically replaced by the monitor, so a
poll always sees a complete document) and the last few records of
``events.jsonl`` (via the tolerant tail reader, so racing the writer
is safe).  One frame shows:

* run header — state, pid, elapsed, the run meta (design, jobs, ...);
* the stage history with the active stage marked;
* one progress bar per live loop, with rate and ETA;
* an RSS sparkline over the sampler's recent timeline + CPU %;
* fleet workers with the age of their last heartbeat (a worker still
  in ``phase: "start"`` past the hang threshold is flagged — visible
  long before its item timeout fires);
* the last few flow events.

Rendering is plain text (one optional ANSI clear between live frames)
so it works over ssh, in CI logs, and under ``--once`` for scripts.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional

from repro.monitor.status import load_status
from repro.telemetry.events import tail_events

#: Last heartbeat older than this (seconds) while in "start" flags the
#: worker as possibly hung.
HANG_AFTER_S = 10.0

_SPARK_CHARS = "▁▂▃▄▅▆▇█"
_BAR_WIDTH = 28
_SPARK_WIDTH = 48


def _fmt_bytes(n: float) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}TiB"  # pragma: no cover - unreachable


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def _bar(done: int, total: int, width: int = _BAR_WIDTH) -> str:
    if total <= 0:
        return "[" + "░" * width + "]"
    filled = int(round(width * min(1.0, done / total)))
    return "[" + "█" * filled + "░" * (width - filled) + "]"


def sparkline(values: List[float], width: int = _SPARK_WIDTH) -> str:
    """Down-sample ``values`` into a fixed-width unicode sparkline."""
    if not values:
        return ""
    if len(values) > width:
        # keep the most recent window — top is about "now"
        values = values[-width:]
    lo, hi = min(values), max(values)
    span = hi - lo
    chars = []
    for v in values:
        idx = 0 if span <= 0 else int((v - lo) / span * (len(_SPARK_CHARS) - 1))
        chars.append(_SPARK_CHARS[idx])
    return "".join(chars)


def render(
    status: Dict[str, Any],
    events: Optional[List[Dict[str, Any]]] = None,
    hang_after_s: float = HANG_AFTER_S,
) -> str:
    """One frame of the top view as a plain-text block."""
    lines: List[str] = []
    state = status.get("state", "?")
    meta = status.get("meta") or {}
    meta_str = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    lines.append(
        f"repro top — {state} pid={status.get('pid', '?')} "
        f"elapsed={_fmt_duration(status.get('elapsed_s'))}"
        + (f"  [{meta_str}]" if meta_str else "")
    )
    if status.get("error"):
        lines.append(f"error: {status['error']}")

    stages = status.get("stages") or []
    if stages:
        lines.append("stages:")
        for entry in stages:
            marker = "▶" if entry.get("state") == "running" else "✔"
            peak = entry.get("peak_rss_bytes")
            peak_str = f"  peak {_fmt_bytes(peak)}" if peak else ""
            lines.append(
                f"  {marker} {entry.get('name', '?'):<12}"
                f" {_fmt_duration(entry.get('elapsed_s'))}{peak_str}"
            )

    progress = status.get("progress") or []
    if progress:
        lines.append("progress:")
        for task in progress:
            total = int(task.get("total", 0))
            done = int(task.get("done", 0))
            pct = 100.0 * done / total if total else 100.0
            rate = task.get("rate_per_s")
            rate_str = f" {rate:.1f}/s" if rate else ""
            eta = "done" if task.get("finished") else (
                f"eta {_fmt_duration(task['eta_s'])}" if "eta_s" in task else "eta --"
            )
            lines.append(
                f"  {task.get('name', '?'):<16} {_bar(done, total)} "
                f"{done}/{total} ({pct:.0f}%){rate_str}  {eta}"
            )

    resources = status.get("resources") or {}
    timeline = resources.get("rss_timeline") or []
    if resources:
        rss_values = [float(point[1]) for point in timeline]
        spark = sparkline(rss_values)
        lines.append(
            f"rss: {_fmt_bytes(resources.get('rss_bytes', 0))}"
            f" (peak {_fmt_bytes(resources.get('peak_rss_bytes', 0))})"
            f"  cpu: {resources.get('cpu_percent', 0.0):.0f}%"
        )
        if spark:
            lines.append(f"  {spark}")

    workers = status.get("workers") or []
    if workers:
        lines.append("workers:")
        for beat in sorted(
            workers, key=lambda b: (str(b.get("host", "")), b.get("pid", 0))
        ):
            age = float(beat.get("age_s", 0.0))
            phase = beat.get("phase", "?")
            # Fleet workers are labelled host:pid (relayed beats carry
            # the worker's identity); a beat without a host shows pid.
            host = beat.get("host")
            label = (
                f"{host}:{beat.get('pid', '?')}"
                if host
                else f"pid {beat.get('pid', '?')}"
            )
            # A worker is "silent" when it went quiet mid-work: inside
            # an item (phase start) or holding a dispatched chunk.  A
            # beat that carries the chunk's remaining deadline tightens
            # the threshold so the flag shows *before* the parent's
            # deadline police drops the worker.
            threshold = hang_after_s
            deadline_s = beat.get("deadline_s")
            if isinstance(deadline_s, (int, float)) and deadline_s > 0:
                threshold = min(threshold, 0.8 * float(deadline_s))
            hung = phase in ("start", "dispatch") and age > threshold
            flag = "  ⚠ possibly hung" if hung else ""
            item = beat.get("item")
            item_str = f" item={item}" if item is not None else ""
            chunk = beat.get("chunk")
            chunk_str = f" chunk={chunk}" if chunk is not None else ""
            lines.append(
                f"  {label}: {phase}{chunk_str}{item_str}"
                f" ({_fmt_duration(age)} ago){flag}"
            )

    if events:
        lines.append("events:")
        for record in events:
            t = record.get("t")
            t_str = f"{float(t):8.2f}s" if isinstance(t, (int, float)) else "       ?"
            extra = {
                k: v
                for k, v in record.items()
                if k not in ("schema", "seq", "t", "type")
            }
            extra_str = " ".join(
                f"{k}={v}" for k, v in sorted(extra.items())
            )
            lines.append(f"  {t_str}  {record.get('type', '?')}  {extra_str}".rstrip())
    return "\n".join(lines)


def render_dir(run_dir: str, event_limit: int = 8) -> Optional[str]:
    """One frame for a run directory (None when no status exists yet)."""
    status = load_status(run_dir)
    if status is None:
        return None
    events = tail_events(os.path.join(run_dir, "events.jsonl"), limit=event_limit)
    return render(status, events)


def run_top(
    run_dir: str,
    once: bool = False,
    interval: float = 1.0,
    timeout: Optional[float] = None,
    out=None,
) -> int:
    """The ``repro top RUNDIR`` loop.  Returns a process exit code.

    Polls until the run leaves the ``running`` state (rendering a
    final frame), or forever under ``once=False`` with no timeout;
    ``once=True`` renders a single frame and exits (0 when a status
    document existed, 1 otherwise).
    """
    import sys

    if out is None:
        out = sys.stdout
    deadline = None if timeout is None else time.monotonic() + timeout
    live = not once and out.isatty()
    waiting_announced = False
    while True:
        frame = render_dir(run_dir)
        if frame is None:
            if once:
                print(f"no status.json under {run_dir} (is the run monitored?)",
                      file=out)
                return 1
            if not waiting_announced:
                # One-time notice so a watch on a not-yet-monitored (or
                # wrong) directory is visibly waiting, not silently hung.
                print(f"waiting for status.json under {run_dir} ...", file=out)
                out.flush()
                waiting_announced = True
        else:
            if live:
                out.write("\x1b[2J\x1b[H")  # clear + home between frames
            print(frame, file=out)
            out.flush()
        if once:
            return 0
        status = load_status(run_dir)
        if status is not None and status.get("state") != "running":
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 0 if frame is not None else 1
        try:
            time.sleep(max(0.05, interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
