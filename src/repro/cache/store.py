"""The on-disk evaluation store.

Layout of a cache directory::

    CACHE.json                  # schema marker (written on first put)
    objects/ab/abcdef....json   # one V-P&R item per key, sharded by prefix
    stages/cd/cdef01....rec     # one flow stage record per stage key

An item entry is a small JSON record carrying the exact
``CandidateEvaluation`` payload (hpwl/congestion costs) plus the
seconds the original evaluation took.  A stage entry is one
:mod:`repro.codec` frame (:mod:`repro.core.stages`), written by a flow
that computed the stage and served to any flow whose stage key matches
(:func:`repro.cache.keys.stage_key`).  Writes go through the shared
atomic temp + rename primitive (:func:`repro.ioutil.atomic_write_bytes`,
``durable=False`` — rename atomicity without per-item fsyncs; a torn
entry is detected on read and treated as a miss).

Design points:

* **Reads never raise.**  Unparseable, truncated, wrong-schema or
  non-finite-cost entries count as misses (``vpr.cache.corrupt``; a
  stage record that fails its frame or payload checks,
  ``cache.stage.corrupt``) and are unlinked best-effort.  A cache can
  therefore be shared, copied, or bit-rotted without ever crashing a
  run.
* **LRU garbage collection.**  Entry mtimes are bumped on hit, so
  eviction (oldest-first) approximates LRU.  ``max_entries`` /
  ``max_bytes`` bound the store; the writer triggers a GC sweep
  opportunistically every :data:`GC_WRITE_INTERVAL` puts, and
  ``repro cache gc`` runs one on demand.
* **Multi-writer tolerant.**  Within one run only the sweep's own
  process holds the store — every :meth:`get`, :meth:`put` and
  :meth:`gc` happens there, fleet workers never see it — so
  the hot path has no file locks.  Across runs there is no single
  owner: every concurrent flow (e.g. each job of a ``repro serve``
  daemon) reads and writes the shared directory.  Writes are safe by
  construction (atomic rename of
  content-addressed entries — two writers racing on one key write the
  same bytes), and :meth:`gc`/:meth:`stats` treat entries that vanish
  mid-sweep (``FileNotFoundError`` on stat or unlink) as already
  collected by the concurrent writer: never an error, never an extra
  eviction.  The per-instance opportunistic GC trigger fires every
  :data:`GC_WRITE_INTERVAL` of *this* writer's puts, so a long-lived
  daemon sharing the store among many short-lived writers should run
  its own periodic :meth:`gc` (the serve worker pool does).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.cache.keys import SCHEMA
from repro.ioutil import atomic_write_bytes, has_finite_costs
from repro.recovery import faults

#: Entry-count bound applied when the cache is opened without explicit
#: limits (~40 designs' worth of full sweeps; entries are ~200 bytes).
DEFAULT_MAX_ENTRIES = 200_000

#: Puts between opportunistic GC sweeps.
GC_WRITE_INTERVAL = 512


@dataclass
class CacheStats:
    """Size summary of a cache directory: totals over both kinds, and
    per kind (``items``, ``stages``) ``{"entries", "total_bytes"}``."""

    entries: int
    total_bytes: int
    kinds: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, int]:
        return {"entries": self.entries, "total_bytes": self.total_bytes}


def derive_cache_summary(
    hits: int, misses: int, stores: int, stats: CacheStats
) -> Dict[str, Any]:
    """Raw counters + size → the shared cache-summary dict.

    One derivation used everywhere a cache is summarised — the sweep
    parent's end-of-sweep ``vpr.cache.summary`` event, ``repro cache
    stats``, and the serve daemon's ``GET /stats`` — so ``hit_ratio``
    and ``bytes_on_disk`` mean the same thing in all three places.
    ``hit_ratio`` is hits over *lookups* (hits + misses), 0.0 when
    nothing was looked up.
    """
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "stores": stores,
        "hit_ratio": (hits / lookups) if lookups else 0.0,
        "entries": stats.entries,
        "bytes_on_disk": stats.total_bytes,
    }


class EvaluationCache:
    """Content-addressed store of V-P&R candidate evaluations."""

    MARKER = "CACHE.json"
    OBJECT_DIR = "objects"
    STAGE_DIR = "stages"
    TOTALS = "TOTALS.json"
    #: Entry kind -> (directory, file suffix).
    KINDS = {"items": (OBJECT_DIR, ".json"), "stages": (STAGE_DIR, ".rec")}

    def __init__(
        self,
        directory: str,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.directory = Path(directory)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._writes_since_gc = 0
        self._marker_written = False
        # In-process traffic counters for this store handle ("session"
        # scope), bumped by get/put.
        self.session_hits = 0
        self.session_misses = 0
        self.session_stores = 0

    # -- paths ---------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.directory / self.OBJECT_DIR / key[:2] / f"{key}.json"

    def _stage_path(self, key: str) -> Path:
        return self.directory / self.STAGE_DIR / key[:2] / f"{key}.rec"

    def _entries(self) -> Iterator[Path]:
        """Entry files of every kind."""
        for subdir, suffix in self.KINDS.values():
            try:
                shards = sorted((self.directory / subdir).iterdir())
            except (FileNotFoundError, NotADirectoryError):
                continue
            for shard in shards:
                if not shard.is_dir():
                    continue
                try:
                    yield from sorted(shard.glob(f"*{suffix}"))
                except OSError:  # pragma: no cover - shard raced away
                    continue

    # -- read path -----------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record for ``key``, or None on miss.

        Corruption-tolerant: any failure to read or validate the entry
        is a miss, and the offending file is removed best-effort.  A
        hit bumps the entry's mtime (the LRU recency signal).
        """
        path = self._entry_path(key)
        # Fault site: the lookup runs in the sweep's own process, so
        # ``raise:`` / ``abort:`` are the actions that do anything here.
        faults.check("cache.read", key=key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            obs.count("vpr.cache.miss")
            self.session_misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            record = None
        if not has_finite_costs(record) or record.get("schema") != SCHEMA:
            obs.count("vpr.cache.corrupt")
            obs.count("vpr.cache.miss")
            self.session_misses += 1
            self._discard(path)
            return None
        obs.count("vpr.cache.hit")
        self.session_hits += 1
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        return record

    def touch(self, key: str) -> bool:
        """Refresh ``key``'s mtime without reading it; True when present.

        The LRU recency bump that :meth:`get` performs implicitly, as a
        standalone operation: the ECO engine calls this for every
        (cluster, shape) evaluation it *reuses from a checkpoint* — a
        reuse that never issues a :meth:`get` — so hot entries backing
        an interactive editing session stay at the warm end of the
        mtime order and survive concurrent :meth:`gc` passes that evict
        colder entries.
        """
        try:
            os.utime(self._entry_path(key))
        except OSError:
            return False
        obs.count("vpr.cache.touch")
        return True

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - permission races
            pass

    # -- write path ----------------------------------------------------
    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store one evaluation record under its content address."""
        payload = {"schema": SCHEMA, "key": key}
        payload.update(record)
        atomic_write_bytes(
            self._entry_path(key),
            json.dumps(payload, sort_keys=True).encode(),
            durable=False,
        )
        obs.count("vpr.cache.store")
        self.session_stores += 1
        self._after_write()

    def _after_write(self) -> None:
        if not self._marker_written:
            self._write_marker()
        self._writes_since_gc += 1
        if self._writes_since_gc >= GC_WRITE_INTERVAL:
            self._writes_since_gc = 0
            self.gc()

    # -- flow stage records --------------------------------------------
    def load_stage(
        self, stage: str, key: str, decode: Callable[[bytes], Any]
    ) -> Optional[Any]:
        """The stage record stored under ``key``, decoded, or None.

        As lossy as :meth:`get`: a record ``decode`` rejects (or that
        cannot be read) is a counted miss (``cache.stage.corrupt``),
        unlinked best-effort; the caller recomputes the stage.
        """
        path = self._stage_path(key)
        try:
            payload = decode(path.read_bytes())
        except FileNotFoundError:
            payload = None
        except Exception:  # noqa: BLE001 - the directory is untrusted
            obs.count("cache.stage.corrupt")
            self._discard(path)
            payload = None
        outcome = "miss" if payload is None else "hit"
        obs.count(f"cache.stage.{outcome}")
        obs.event(f"cache.stage.{outcome}", stage=stage, key=key)
        if payload is not None:
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - entry raced away
                pass
        return payload

    def save_stage(self, stage: str, key: str, data: bytes) -> None:
        """Store one encoded stage record under its stage key."""
        atomic_write_bytes(self._stage_path(key), data, durable=False)
        obs.count("cache.stage.store")
        self._after_write()

    def _write_marker(self) -> None:
        marker = self.directory / self.MARKER
        if not marker.is_file():
            atomic_write_bytes(
                marker,
                json.dumps({"schema": SCHEMA}, sort_keys=True).encode(),
                durable=False,
            )
        self._marker_written = True

    # -- lifetime traffic totals ---------------------------------------
    def read_totals(self) -> Dict[str, int]:
        """Cumulative hit/miss/store counters persisted in the store.

        Every sweep parent folds its session traffic in at the end of
        the sweep (:meth:`bump_totals`), so ``repro cache stats`` can
        derive a lifetime hit ratio for a cold directory.  Shares the
        read path's corruption tolerance: an unreadable or torn totals
        file reads as all-zero.
        """
        try:
            record = json.loads((self.directory / self.TOTALS).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return {"hits": 0, "misses": 0, "stores": 0}
        if not isinstance(record, dict):
            return {"hits": 0, "misses": 0, "stores": 0}
        totals = {}
        for field in ("hits", "misses", "stores"):
            try:
                totals[field] = max(0, int(record.get(field, 0)))
            except (TypeError, ValueError):
                totals[field] = 0
        return totals

    def bump_totals(
        self, hits: int = 0, misses: int = 0, stores: int = 0
    ) -> Dict[str, int]:
        """Add one session's traffic to the persisted lifetime totals.

        Best-effort read-modify-write through the atomic rename
        primitive: two parents finishing simultaneously can lose one
        increment (the counters are observability, not accounting —
        the same trade the mtime-based LRU already makes), but a
        reader never sees a torn record.  Returns the new totals.
        """
        totals = self.read_totals()
        totals["hits"] += max(0, int(hits))
        totals["misses"] += max(0, int(misses))
        totals["stores"] += max(0, int(stores))
        payload = {"schema": SCHEMA}
        payload.update(totals)
        atomic_write_bytes(
            self.directory / self.TOTALS,
            json.dumps(payload, sort_keys=True).encode(),
            durable=False,
        )
        return totals

    # -- maintenance ---------------------------------------------------
    def stats(self) -> CacheStats:
        """Entry count and total payload bytes currently stored, in all
        and per kind."""
        kinds = {kind: {"entries": 0, "total_bytes": 0} for kind in self.KINDS}
        of_suffix = {suffix: kind for kind, (_, suffix) in self.KINDS.items()}
        for path in self._entries():
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - entry raced away
                continue
            kind = kinds[of_suffix[path.suffix]]
            kind["entries"] += 1
            kind["total_bytes"] += size
        return CacheStats(
            entries=sum(k["entries"] for k in kinds.values()),
            total_bytes=sum(k["total_bytes"] for k in kinds.values()),
            kinds=kinds,
        )

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict least-recently-used entries, of both kinds, past the
        size bounds.

        Bounds default to the store's configured limits; returns the
        number of entries evicted (``vpr.cache.evict`` counts them
        too).  A bound of None is unlimited.

        Safe under concurrent writers: an entry another process
        removed between our directory walk and our unlink counts as
        already collected — it still reduces the store towards the
        bound, but is not reported (or counted) as one of our
        evictions, so two racing sweeps never evict more live entries
        than one sweep would.
        """
        if max_entries is None:
            max_entries = self.max_entries
        if max_bytes is None:
            max_bytes = self.max_bytes
        if max_entries is None and max_bytes is None:
            return 0
        aged: List[Tuple[float, int, Path]] = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:  # entry raced away under a concurrent writer
                continue
            aged.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        aged.sort()  # oldest mtime first = least recently used
        evicted = 0
        count = len(aged)
        for mtime, size, path in aged:
            over_count = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not (over_count or over_bytes):
                break
            try:
                path.unlink()
                evicted += 1
            except FileNotFoundError:
                pass  # a concurrent gc/corruption-discard beat us to it
            except OSError:  # pragma: no cover - permission races
                continue  # undeletable: leave it out of the accounting
            count -= 1
            total -= size
        if evicted:
            obs.count("vpr.cache.evict", evicted)
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            self._discard(path)
            removed += 1
        return removed
