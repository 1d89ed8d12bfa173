"""Shared atomic file-IO helpers.

One implementation of the temp + (optional fsync) + rename discipline,
used by both durability layers:

* :mod:`repro.recovery.checkpoint` writes **durable** records
  (``durable=True``): the payload is fsynced before the rename and the
  directory is fsynced after, so a completed write survives power loss.
* :mod:`repro.cache.store` writes **best-effort** records
  (``durable=False``): rename-atomicity still guarantees readers never
  see a half-written file from a concurrent writer, but fsync is
  skipped — a cache entry lost to a crash is merely a future miss, and
  per-item fsyncs would dominate the cache's bookkeeping overhead.

Either way a reader observes the previous version or the new one,
never a torn file (on POSIX rename semantics).
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from pathlib import Path
from typing import Any


def fsync_directory(path: Path) -> None:
    """fsync a directory so a rename inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes, durable: bool = True) -> None:
    """Write ``data`` to ``path`` atomically (temp + rename).

    ``durable=True`` additionally fsyncs the payload and the containing
    directory (checkpoint discipline); ``durable=False`` skips both
    fsyncs for write-mostly stores whose entries are disposable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        fsync_directory(path.parent)


#: Fields a stored V-P&R item record (checkpoint item or cache entry)
#: must carry, as finite numbers, for a sweep to serve it.
COST_FIELDS = ("hpwl_cost", "congestion_cost")


def has_finite_costs(record: Any) -> bool:
    """Whether ``record`` — a parsed item file of either durability
    layer — is a dict whose :data:`COST_FIELDS` are finite numbers.
    ``json.loads`` accepts ``NaN``; shape selection would drop such a
    candidate without a word, so both stores refuse it on read."""
    return isinstance(record, dict) and all(
        type(record.get(name)) in (int, float) and math.isfinite(record[name])
        for name in COST_FIELDS
    )


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of a byte string (the content-address primitive)."""
    return hashlib.sha256(data).hexdigest()
