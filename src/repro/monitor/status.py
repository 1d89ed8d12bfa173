"""Atomic publication of ``status.json``.

``status.json`` (schema ``repro.monitor/1``) is the single file a
*separate process* polls to see inside a live run — ``repro top``, and
``repro serve``'s ``GET /jobs/<id>`` for a served job.  Every document
goes through :func:`repro.ioutil.atomic_write_bytes` (temp + rename,
``durable=False``): a reader sees the previous complete document or
the new one, never a torn file.  No fsync — a status file lost to a
crash is worthless a millisecond later anyway.  The one writer is the
monitor session's thread (:mod:`repro.monitor.session`), once per
interval.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

from repro.ioutil import atomic_write_bytes

#: Schema tag stamped on every status document.
STATUS_SCHEMA = "repro.monitor/1"

#: File name inside the telemetry out-dir.
STATUS_FILENAME = "status.json"


def status_path(out_dir: str) -> str:
    """The ``status.json`` path for a run directory."""
    return os.path.join(out_dir, STATUS_FILENAME)


def load_status(out_dir: str) -> Optional[Dict[str, Any]]:
    """Read a run directory's status document (None when absent or
    unreadable — a poller's miss, never its error)."""
    try:
        with open(status_path(out_dir)) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("schema") != STATUS_SCHEMA:
        return None
    return data


def write_status(out_dir: str, doc: Dict[str, Any]) -> None:
    """Publish ``doc`` as the run directory's ``status.json`` (stamped
    with the schema and the write time)."""
    payload = dict(doc, schema=STATUS_SCHEMA, updated_unix=time.time())
    data = json.dumps(payload, sort_keys=True).encode()
    atomic_write_bytes(status_path(out_dir), data, durable=False)
