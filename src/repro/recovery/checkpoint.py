"""Versioned, atomic stage checkpoints for the placement flow.

A :class:`CheckpointStore` owns one checkpoint directory::

    MANIFEST.json         # schema, the run's config, stage -> key list
    stage_<name>.pkl      # one repro.codec frame per completed stage
    items/<key>.json      # one per completed V-P&R evaluation

Stage records (:mod:`repro.core.stages`, no pickle; the ``.pkl``
suffix is historical, tools read ``stage_eco_base.pkl`` by name) sit
under their content key (:func:`repro.cache.keys.stage_key`), items
under theirs (:func:`repro.cache.cache_key`): the shared cache's keys.
A resume serves exactly the stages whose keys it computes again, so a
changed knob recomputes its stage and everything downstream; damage is
a :class:`CheckpointError` naming the file and the fix.  No RNG state
is kept: every stage draws from explicit seeded generators.  Every
write is atomic and durable (:func:`repro.ioutil.atomic_write_bytes`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

from repro import obs
from repro.ioutil import atomic_write_bytes, has_finite_costs
from repro.recovery import faults

__all__ = [
    "SCHEMA",
    "STAGES",
    "CheckpointError",
    "CheckpointStore",
    "atomic_write_bytes",  # re-exported; implementation in repro.ioutil
]

#: Schema tag of the manifest and every item record.
SCHEMA = "repro.recovery/2"

#: Flow stages a store can hold, in execution order.
STAGES = ("clustering", "vpr", "vpr_digests", "seeded", "eco_base", "metrics")


class CheckpointError(RuntimeError):
    """A checkpoint could not be created, validated or loaded; the
    message names the offending path and the remedy."""


class CheckpointStore:
    """One checkpoint directory: stage records and V-P&R items."""

    MANIFEST = "MANIFEST.json"
    ITEM_DIR = "items"

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self.config: Dict[str, Any] = {}
        self._keys: Dict[str, str] = {}

    # -- lifecycle -----------------------------------------------------
    def initialize(self, config: Mapping[str, Any]) -> None:
        """Start a fresh checkpoint, discarding any previous records."""
        self.directory.mkdir(parents=True, exist_ok=True)
        items = (self.directory / self.ITEM_DIR).glob("*.json")
        for stale in [*self.directory.glob("stage_*.pkl"), *items]:
            stale.unlink()
        self.config, self._keys = dict(config), {}
        self._write_manifest()

    def open_resume(
        self, config: Mapping[str, Any], keys: Mapping[str, str]
    ) -> None:
        """Attach for a resumed run whose stages have content ``keys``;
        a stage recorded under any other key is forgotten."""
        recorded = self._read_manifest(
            "run without --resume to start a fresh checkpointed run",
            f"delete {self.directory} and rerun without --resume",
        )
        self.config = dict(config)
        self._keys = {s: k for s, k in recorded.items() if keys.get(s) == k}
        self._write_manifest()

    def open_existing(self) -> Dict[str, Any]:
        """Attach to a checkpoint to read it (the ECO path) and return
        the recorded run config."""
        self._keys = self._read_manifest(
            "point the ECO path at a run directory produced with --checkpoint",
            "re-run the base flow with --checkpoint to regenerate it",
        )
        return dict(self.config)

    def _read_manifest(self, missing: str, remedy: str) -> Dict[str, str]:
        """The schema-checked manifest's stage -> key map (its config
        goes to ``self.config``); errors end with the caller's remedy."""
        path = self.directory / self.MANIFEST
        if not path.is_file():
            raise CheckpointError(f"no checkpoint manifest at {path}; {missing}")
        try:
            manifest = json.loads(path.read_text())
            schema = manifest.get("schema")
            if schema == SCHEMA:
                config = dict(manifest["config"])
                keys = {str(s): str(k) for s, k in manifest["stages"]}
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise CheckpointError(
                f"checkpoint manifest {path} is corrupt ({exc!r}); {remedy}"
            ) from exc
        if schema != SCHEMA:
            raise CheckpointError(
                f"checkpoint {path} has schema {schema!r} but this build "
                f"expects {SCHEMA!r}; {remedy}"
            )
        self.config = config
        return keys

    # -- stage records -------------------------------------------------
    def _stage_path(self, stage: str) -> Path:
        return self.directory / f"stage_{stage}.pkl"

    def stage_key(self, stage: str) -> Optional[str]:
        """The key ``stage`` is recorded under, or None."""
        return self._keys.get(stage)

    def save_stage(self, stage: str, key: str, data: bytes) -> None:
        """Durably persist one encoded stage record under ``key``."""
        path = self._stage_path(stage)
        atomic_write_bytes(path, data)
        if faults.check("checkpoint.save", key=stage) == "corrupt":
            # Fault injection: simulate bit rot on disk (same length).
            path.write_bytes(data[:-2] + bytes(b ^ 0xFF for b in data[-2:]))
        self._keys[stage] = key
        self._write_manifest()
        obs.count("recovery.stage.saved")
        obs.event("checkpoint.saved", stage=stage)

    def load_stage(
        self, stage: str, key: str, decode: Callable[[bytes], Any]
    ) -> Optional[Any]:
        """The stage record under ``key``, decoded, or None when not
        held; a held record ``decode`` rejects is damage: it raises."""
        path = self._stage_path(stage)
        if self._keys.get(stage) != key or not path.is_file():
            return None
        try:
            payload = decode(path.read_bytes())
        except Exception as exc:  # noqa: BLE001 - any damage is diagnosed
            raise CheckpointError(
                f"checkpoint file {path} is truncated or corrupted ({exc}); "
                f"delete it (or the whole directory {self.directory}) and "
                "rerun to recompute the stage"
            ) from exc
        obs.count("recovery.stage.reused")
        obs.event("checkpoint.resumed", stage=stage)
        return payload

    # -- V-P&R item records --------------------------------------------
    def _item_path(self, key: str) -> Path:
        return self.directory / self.ITEM_DIR / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The item saved under content address ``key``, or None.  A
        damaged item is this run's own record gone bad: it raises."""
        path = self._item_path(key)
        if not path.is_file():
            return None
        try:
            record = json.loads(path.read_text())
        except ValueError:  # not JSON, or not UTF-8
            record = None
        if not has_finite_costs(record) or record.get("schema") != SCHEMA:
            raise CheckpointError(
                f"checkpoint item {path} is corrupt, has an unexpected "
                "schema or lacks finite hpwl_cost / congestion_cost values; "
                "delete it to recompute that evaluation on resume"
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
        stages = [[s, self._keys[s]] for s in STAGES if s in self._keys]
        manifest = {"schema": SCHEMA, "config": self.config, "stages": stages}
        atomic_write_bytes(
            self.directory / self.MANIFEST,
            json.dumps(manifest, indent=2, sort_keys=True).encode(),
        )
