"""Worker heartbeats: per-process liveness files the parent merges.

The V-P&R fleet returns results per *chunk*, so a worker grinding (or
hung) inside a long item is invisible to the parent until the chunk
resolves — or until the item's SIGALRM timeout fires, which can be
minutes away (or disabled).  Heartbeats close that gap with the same
file discipline the telemetry layer already uses:

* a worker sends a beat when it *starts* and *finishes* an item, and
  the fleet parent appends each as one flushed JSON line to that
  worker's own ``worker-<name>.jsonl`` under the monitor directory
  (one writer per file, no cross-process locks);
* the parent's status refresh reads the **last intact line** of every
  worker file (a fixed-size tail read with the same torn-line
  tolerance as :func:`repro.telemetry.events.iter_events`, so the
  poll cost stays constant however many items a long sweep appends)
  and merges them into ``status.json``'s ``workers`` block with the
  age of each worker's last beat.

A worker whose last beat is ``phase: "start"`` and old is *visibly
hung* in ``repro top`` long before its timeout ends it.  Heartbeats
are best-effort by design: a worker that cannot write (disk full,
torn directory) degrades to no liveness data, never to a failed item.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

#: Subdirectory of the telemetry out-dir holding worker heartbeats.
HEARTBEAT_DIRNAME = "monitor"

_PREFIX = "worker-"
_SUFFIX = ".jsonl"

#: Bytes read from the end of a beat file per poll.  One beat record
#: is well under 200 bytes, so this always covers the last line while
#: keeping the per-poll cost independent of how many items the worker
#: has completed (status refreshes poll at sampler rate).
_TAIL_BYTES = 4096


def heartbeat_dir(out_dir: str) -> str:
    """The heartbeat directory under a telemetry out-dir."""
    return os.path.join(out_dir, HEARTBEAT_DIRNAME)


class HeartbeatWriter:
    """One worker's append-only heartbeat file.

    By default the writer describes *this* process (``worker-<pid>``).
    The fleet parent instantiates one per worker to relay the beats
    arriving over the socket into the directory — ``name`` keeps two
    workers (possibly with colliding pids on different hosts) in
    distinct files, and ``pid`` / ``host`` stamp the relayed records
    with the worker's identity so ``repro top`` can render
    ``host:pid``.
    """

    def __init__(
        self,
        directory: str,
        name: Optional[str] = None,
        pid: Optional[int] = None,
        host: Optional[str] = None,
    ) -> None:
        self.directory = directory
        self.pid = pid if pid is not None else os.getpid()
        self.host = host
        stem = name if name is not None else str(self.pid)
        self.path = os.path.join(directory, f"{_PREFIX}{stem}{_SUFFIX}")
        self._handle = None
        try:
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a")
        except OSError:  # pragma: no cover - heartbeats are best-effort
            self._handle = None

    def beat(self, phase: str, **fields: Any) -> None:
        """Append one beat (``phase`` is ``"start"`` / ``"done"``)."""
        if self._handle is None:
            return
        record = {"pid": self.pid, "t": time.time(), "phase": phase}
        if self.host is not None:
            record["host"] = self.host
        record.update(fields)
        try:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        except OSError:  # pragma: no cover - best-effort
            pass

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover
                pass
            self._handle = None


def _last_beat(path: str) -> Optional[Dict[str, Any]]:
    """The last intact JSON record of a beat file via a tail read.

    Seeks to the final :data:`_TAIL_BYTES` of the file and parses
    newline-terminated lines back-to-front, so the cost per poll is
    constant regardless of file length.  A torn trailing line (writer
    mid-append), a partial first line (the seek landed mid-record), or
    an unreadable file all degrade to ``None`` / being skipped — the
    same tolerance contract as the event log reader.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(max(0, size - _TAIL_BYTES))
            data = handle.read(_TAIL_BYTES)
    except OSError:
        return None
    lines = data.split(b"\n")
    if not data.endswith(b"\n"):
        lines = lines[:-1]  # torn trailing line: never a complete record
    for line in reversed(lines):
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            return record
    return None


def read_worker_beats(
    directory: str, now: Optional[float] = None
) -> List[Dict[str, Any]]:
    """The last intact beat of every worker file, parent-side.

    Returns one record per worker, each with an ``age_s`` field (time
    since the beat) so a stalled worker stands out.  Missing or torn
    files contribute nothing — the reader shares the event log's
    tolerance guarantees.
    """
    if now is None:
        now = time.time()
    beats: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return beats
    for name in names:
        if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
            continue
        last = _last_beat(os.path.join(directory, name))
        if last is None:
            continue
        beat = dict(last)
        beat["age_s"] = max(0.0, now - float(beat.get("t", now)))
        beats.append(beat)
    return beats


def clear_worker_beats(directory: str) -> None:
    """Remove stale heartbeat files (start-of-sweep hygiene)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if name.startswith(_PREFIX) and name.endswith(_SUFFIX):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:  # pragma: no cover - best-effort
                pass
