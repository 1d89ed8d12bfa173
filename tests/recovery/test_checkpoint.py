"""CheckpointStore: atomic writes, validation, corruption detection."""

import json

import numpy as np
import pytest

from repro.recovery import faults
from repro.recovery.checkpoint import (
    SCHEMA,
    CheckpointError,
    CheckpointStore,
    atomic_write_bytes,
)

FP = {"schema": SCHEMA, "design": "toy", "seed": 3}


class TestAtomicWrite:
    def test_roundtrip_and_overwrite(self, tmp_path):
        path = tmp_path / "sub" / "blob.bin"
        atomic_write_bytes(path, b"first")
        assert path.read_bytes() == b"first"
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


class TestStageRecords:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.initialize(FP)
        payload = {"values": np.arange(5), "tag": "clustering"}
        assert not store.has_stage("clustering")
        store.save_stage("clustering", payload)
        assert store.has_stage("clustering")
        loaded = store.load_stage("clustering")
        assert loaded["tag"] == "clustering"
        np.testing.assert_array_equal(loaded["values"], payload["values"])

    def test_missing_stage_raises(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        with pytest.raises(CheckpointError, match="not recorded"):
            store.load_stage("vpr")

    def test_corrupt_stage_file_is_actionable(self, tmp_path):
        """A truncated stage file must surface as a CheckpointError
        naming the file and the fix — never as a pickle traceback."""
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        store.save_stage("vpr", {"shapes": [1, 2, 3]})
        path = tmp_path / "stage_vpr.pkl"
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointError) as excinfo:
            store.load_stage("vpr")
        message = str(excinfo.value)
        assert "stage_vpr.pkl" in message
        assert "delete" in message

    def test_corrupt_fault_injection_breaks_checksum(self, tmp_path):
        faults.configure("corrupt:checkpoint.save:seeded")
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        store.save_stage("seeded", {"x": [1.0]})
        with pytest.raises(CheckpointError, match="checksum"):
            store.load_stage("seeded")

    def test_initialize_wipes_previous_records(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        store.save_stage("clustering", {"a": 1})
        store.put("k0", {"ar": 1.0, "util": 0.9, "hpwl_cost": 1.0,
                         "congestion_cost": 0.5})
        store.initialize(FP)
        assert not store.has_stage("clustering")
        assert store.get("k0") is None


class TestResumeValidation:
    def test_resume_without_manifest(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "empty"))
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            store.open_resume(FP)

    def test_resume_with_corrupt_manifest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        (tmp_path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.open_resume(FP)

    def test_resume_with_wrong_schema(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        manifest["schema"] = "repro.recovery/0"
        (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="schema"):
            store.open_resume(FP)

    def test_fingerprint_mismatch_names_differing_keys(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        other = dict(FP, seed=4, design="other")
        with pytest.raises(CheckpointError) as excinfo:
            CheckpointStore(str(tmp_path)).open_resume(other)
        message = str(excinfo.value)
        assert "design" in message and "seed" in message

    def test_resume_sees_saved_stages(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        store.save_stage("clustering", {"k": 1})
        resumed = CheckpointStore(str(tmp_path))
        resumed.open_resume(FP)
        assert resumed.has_stage("clustering")
        assert resumed.load_stage("clustering") == {"k": 1}


class TestVPRItems:
    """Items live under their content address: ``items/<key>.json``."""

    RECORD = {"ar": 2.0, "util": 0.8, "hpwl_cost": 1.5,
              "congestion_cost": 0.25, "seconds": 0.01}

    def test_roundtrip_and_missing(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        assert store.get("k12") is None
        store.put("k12", self.RECORD)
        record = store.get("k12")
        assert record["hpwl_cost"] == 1.5
        assert record["schema"] == SCHEMA
        assert record["key"] == "k12"

    def test_items_are_durable_unlike_cache_entries(self, tmp_path, monkeypatch):
        """Both stores share the key; only the checkpoint fsyncs (the
        payload, then the directory)."""
        import os

        from repro.cache import EvaluationCache

        synced = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real(fd))
        EvaluationCache(str(tmp_path / "cache")).put("k12", self.RECORD)
        assert synced == []
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.put("k12", self.RECORD)
        assert len(synced) == 2

    def test_iteration(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        store.put("k01", self.RECORD)
        store.put("k20", self.RECORD)
        items = {p.stem for p in (tmp_path / "items").glob("*.json")}
        assert items == {"k01", "k20"}

    def test_corrupt_item_is_actionable(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        store.put("k03", self.RECORD)
        path = tmp_path / "items" / "k03.json"
        path.write_text("{torn")
        with pytest.raises(CheckpointError, match="k03.json"):
            store.get("k03")

    def test_wrong_schema_item_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        path = tmp_path / "items" / "k00.json"
        atomic_write_bytes(path, json.dumps({"schema": "other"}).encode())
        with pytest.raises(CheckpointError, match="unexpected schema"):
            store.get("k00")

    @pytest.mark.parametrize(
        "damage",
        [
            {"congestion_cost": None},  # key deleted
            {"hpwl_cost": float("nan")},  # json.loads reads NaN back
            {"congestion_cost": float("-inf")},
            {"hpwl_cost": "1.5"},
        ],
        ids=["missing", "nan", "inf", "string"],
    )
    def test_item_without_finite_costs_is_actionable(self, tmp_path, damage):
        """Not a bare KeyError in the sweep, and not a NaN served into
        a slot for shape selection to drop silently."""
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        record = dict(self.RECORD, **damage)
        store.put("k03", {k: v for k, v in record.items() if v is not None})
        with pytest.raises(CheckpointError, match="k03.json.*delete"):
            store.get("k03")

    def test_non_object_item_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        path = tmp_path / "items" / "k00.json"
        atomic_write_bytes(path, b"[]")
        with pytest.raises(CheckpointError, match="k00.json"):
            store.get("k00")
