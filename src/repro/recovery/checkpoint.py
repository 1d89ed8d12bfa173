"""Versioned, atomic stage checkpoints for the placement flow.

A :class:`CheckpointStore` owns one checkpoint directory and persists
the flow's units of work as they complete:

* **stage records** — the clustering result, the chosen shapes, the
  seeded-placement state and the final metrics, one pickle per stage,
  with a SHA-256 recorded in the manifest and verified on load;
* **V-P&R items** — one small JSON file per finished evaluation,
  written the moment it finishes, under the same content address the
  shared evaluation cache uses (:func:`repro.cache.cache_key`), so an
  interrupted sweep resumes from the last completed item rather than
  the last completed stage, and a cluster whose members changed is
  recomputed while every untouched one is reused.

No RNG state is kept: every stage draws from explicit seeded
generators, never the global ``random`` / ``numpy.random`` streams
(``tests/test_no_global_rng.py`` holds ``src/repro`` to that), so a
resumed run replays an uninterrupted one without a snapshot.  The
``rng_*.pkl`` files and ``vpr_items/`` (cluster, candidate) records
older builds wrote are ignored.

Every write is atomic: the payload goes to a temporary file in the
same directory, is fsynced, and is renamed over the final name (the
directory is fsynced too; the shared primitive lives in
:mod:`repro.ioutil` and is also what the evaluation cache uses).  A
crash at any instant therefore leaves either the previous version or
the new one — never a torn file.
Externally corrupted files are detected (checksum / JSON parse) and
reported as a :class:`CheckpointError` naming the file and the fix,
not as a pickle traceback.

Layout of a checkpoint directory::

    MANIFEST.json         # schema, fingerprint, completed stages
    stage_clustering.pkl  # one per completed stage
    items/<key>.json      # one per completed V-P&R evaluation

The manifest ``fingerprint`` identifies the run configuration (design,
seed, clustering method, candidate grid, ...); ``--resume`` refuses a
checkpoint written by a different configuration instead of silently
mixing results.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any, Dict, Optional

from repro import obs
from repro.ioutil import atomic_write_bytes, has_finite_costs, sha256_hex
from repro.recovery import faults

__all__ = [
    "SCHEMA",
    "STAGES",
    "CheckpointError",
    "CheckpointStore",
    "atomic_write_bytes",  # re-exported; implementation in repro.ioutil
]

#: Schema tag of the manifest and every item record.
SCHEMA = "repro.recovery/1"

#: Flow stages a store can hold, in execution order.
STAGES = ("clustering", "vpr", "vpr_digests", "seeded", "eco_base", "metrics")


class CheckpointError(RuntimeError):
    """A checkpoint could not be created, validated or loaded.

    The message always names the offending path and the remedy
    (usually: delete the file or directory and rerun without
    ``--resume``).
    """


class CheckpointStore:
    """One checkpoint directory: stage records and V-P&R items."""

    MANIFEST = "MANIFEST.json"
    ITEM_DIR = "items"

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self._manifest: Dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------
    def initialize(self, fingerprint: Dict[str, Any]) -> None:
        """Start a fresh checkpoint, discarding any previous records."""
        self.directory.mkdir(parents=True, exist_ok=True)
        for stale in self.directory.glob("stage_*.pkl"):
            stale.unlink()
        item_dir = self.directory / self.ITEM_DIR
        if item_dir.is_dir():
            for stale in item_dir.glob("*.json"):
                stale.unlink()
        self._manifest = {
            "schema": SCHEMA,
            "fingerprint": dict(fingerprint),
            "stages": {},
        }
        self._write_manifest()

    def _read_manifest(self, missing: str, remedy: str) -> Dict[str, Any]:
        """The parsed, schema-checked manifest; errors end with the
        caller's remedy (``missing`` when there is no manifest)."""
        path = self.directory / self.MANIFEST
        if not path.is_file():
            raise CheckpointError(f"no checkpoint manifest at {path}; {missing}")
        try:
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint manifest {path} is corrupt ({exc}); {remedy}"
            ) from exc
        schema = manifest.get("schema")
        if schema != SCHEMA:
            raise CheckpointError(
                f"checkpoint {path} has schema {schema!r} but this build "
                f"expects {SCHEMA!r}; {remedy}"
            )
        return manifest

    def open_resume(self, fingerprint: Dict[str, Any]) -> None:
        """Attach to an existing checkpoint for a resumed run."""
        manifest = self._read_manifest(
            "run without --resume to start a fresh checkpointed run",
            f"delete {self.directory} and rerun without --resume",
        )
        recorded = manifest.get("fingerprint", {})
        if recorded != dict(fingerprint):
            changed = sorted(
                k
                for k in set(recorded) | set(fingerprint)
                if recorded.get(k) != fingerprint.get(k)
            )
            raise CheckpointError(
                f"checkpoint {self.directory} was written by a different run "
                f"configuration (differing: {', '.join(changed)}); resume "
                "with the original configuration or start a fresh checkpoint"
            )
        self._manifest = manifest

    def open_existing(self) -> Dict[str, Any]:
        """Attach to an existing checkpoint without a fingerprint check.

        The ECO path opens a finished run's checkpoint to *read* its
        stages (clustering, shapes, seeded positions, metrics, the
        ``eco_base`` design snapshot) — the caller does not know the
        original run configuration, so unlike :meth:`open_resume` the
        recorded fingerprint is returned rather than compared.  Schema
        and manifest integrity are still validated with the same
        actionable errors.
        """
        self._manifest = self._read_manifest(
            "point the ECO path at a run directory produced with --checkpoint",
            "re-run the base flow with --checkpoint to regenerate it",
        )
        return self.fingerprint

    @property
    def fingerprint(self) -> Dict[str, Any]:
        """The run-configuration fingerprint recorded in the manifest."""
        return dict(self._manifest.get("fingerprint", {}))

    # -- stage records -------------------------------------------------
    def _stage_path(self, stage: str) -> Path:
        return self.directory / f"stage_{stage}.pkl"

    def has_stage(self, stage: str) -> bool:
        entry = self._manifest.get("stages", {}).get(stage)
        return entry is not None and self._stage_path(stage).is_file()

    def save_stage(self, stage: str, payload: Any) -> None:
        """Persist one completed stage atomically and record its hash."""
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._stage_path(stage)
        atomic_write_bytes(path, data)
        if faults.check("checkpoint.save", key=stage) == "corrupt":
            # Fault injection: simulate a torn/bit-rotted file on disk.
            path.write_bytes(data[: max(1, len(data) // 2)] + b"\xde\xad")
        self._manifest.setdefault("stages", {})[stage] = {
            "file": path.name,
            "sha256": sha256_hex(data),
            "bytes": len(data),
        }
        self._write_manifest()

    def load_stage(self, stage: str) -> Any:
        """Load a completed stage, verifying its checksum."""
        entry = self._manifest.get("stages", {}).get(stage)
        path = self._stage_path(stage)
        if entry is None or not path.is_file():
            raise CheckpointError(
                f"checkpoint stage {stage!r} is not recorded in {self.directory}"
            )
        data = path.read_bytes()
        if sha256_hex(data) != entry.get("sha256"):
            raise CheckpointError(
                f"checkpoint file {path} does not match the checksum in the "
                "manifest (truncated or corrupted); delete it (or the whole "
                f"directory {self.directory}) and rerun without --resume to "
                "recompute the stage"
            )
        try:
            return pickle.loads(data)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint file {path} failed to unpickle ({exc!r}); "
                f"delete it and rerun without --resume"
            ) from exc

    # -- V-P&R item records --------------------------------------------
    def _item_path(self, key: str) -> Path:
        return self.directory / self.ITEM_DIR / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The item saved under content address ``key``, or None.

        Unlike the shared cache's lossy read, a damaged item is this
        run's own record gone bad, so it raises rather than misses.
        """
        path = self._item_path(key)
        if not path.is_file():
            return None
        try:
            record = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint item {path} is corrupt ({exc}); delete it to "
                "recompute that evaluation on resume"
            ) from exc
        if not has_finite_costs(record) or record.get("schema") != SCHEMA:
            raise CheckpointError(
                f"checkpoint item {path} has an unexpected schema or "
                "lacks finite hpwl_cost / congestion_cost values; delete "
                "it to recompute that evaluation on resume"
            )
        obs.count("recovery.item.reused")
        return record

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Durably persist one finished evaluation under its content
        address (:func:`repro.cache.cache_key`)."""
        payload = {"schema": SCHEMA, "key": key}
        payload.update(record)
        atomic_write_bytes(
            self._item_path(key), json.dumps(payload, sort_keys=True).encode()
        )
        obs.count("recovery.item.saved")
        # Resume tests abort the whole process here (the instant after
        # a unit of work was durably recorded).
        faults.check("vpr.item.saved", key=key)

    # -- manifest ------------------------------------------------------
    def _write_manifest(self) -> None:
        atomic_write_bytes(
            self.directory / self.MANIFEST,
            json.dumps(self._manifest, indent=2, sort_keys=True).encode(),
        )
