"""CheckpointStore: atomic writes, keyed stage records, validation,
corruption detection."""

import json

import numpy as np
import pytest

from repro.core.metrics import PPAMetrics
from repro.core.ppa_clustering import ClusteringResult
from repro.core.stages import encode_stage, stage_decoder
from repro.recovery import faults
from repro.recovery.checkpoint import (
    SCHEMA,
    CheckpointError,
    CheckpointStore,
    atomic_write_bytes,
)

FP = {"design": "toy", "seed": 3}


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


def _clustering(n=5) -> ClusteringResult:
    return ClusteringResult(
        cluster_of=np.arange(n) % 2,
        edge_scores=np.linspace(0.0, 1.0, 7),
        runtimes={"clustering": 0.25},
    )


def _save(store, stage, key, payload):
    store.save_stage(stage, key, encode_stage(stage, key, payload))


def _load(store, stage, key):
    return store.load_stage(stage, key, stage_decoder(stage, key))


class TestStageRecords:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.initialize(FP)
        assert store.stage_key("clustering") is None
        assert _load(store, "clustering", "k1") is None
        _save(store, "clustering", "k1", _clustering())
        assert store.stage_key("clustering") == "k1"
        loaded = _load(store, "clustering", "k1")
        np.testing.assert_array_equal(loaded.cluster_of, _clustering().cluster_of)
        np.testing.assert_array_equal(loaded.edge_scores, _clustering().edge_scores)
        assert loaded.runtimes == {"clustering": 0.25}
        # Held under its own key only.
        assert _load(store, "clustering", "k2") is None
        assert [p.name for p in (tmp_path / "ckpt").glob("stage_*")] == [
            "stage_clustering.pkl"
        ]

    def test_missing_stage_raises(self, tmp_path):
        """The ECO path reads stages by the keys the manifest lists; a
        checkpoint without one is refused by name."""
        from repro.eco import EcoSession

        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        with pytest.raises(CheckpointError, match="no 'eco_base' stage"):
            EcoSession(str(tmp_path))

    def test_corrupt_stage_file_is_actionable(self, tmp_path):
        """A truncated stage file must surface as a CheckpointError
        naming the file and the fix — never as a decoder traceback."""
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        _save(store, "clustering", "k1", _clustering())
        path = tmp_path / "stage_clustering.pkl"
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointError) as excinfo:
            _load(store, "clustering", "k1")
        message = str(excinfo.value)
        assert "stage_clustering.pkl" in message
        assert "delete" in message

    def test_corrupt_fault_injection_breaks_checksum(self, tmp_path):
        faults.configure("corrupt:checkpoint.save:seeded")
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        state = {"x": np.ones(3), "y": np.zeros(3), "hpwl": 1.0, "runtimes": {}}
        _save(store, "seeded", "k1", state)
        with pytest.raises(CheckpointError, match="checksum"):
            _load(store, "seeded", "k1")

    def test_initialize_wipes_previous_records(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        _save(store, "clustering", "k1", _clustering())
        store.put("k0", {"ar": 1.0, "util": 0.9, "hpwl_cost": 1.0,
                         "congestion_cost": 0.5})
        store.initialize(FP)
        assert store.stage_key("clustering") is None
        assert _load(store, "clustering", "k1") is None
        assert not list(tmp_path.glob("stage_*"))
        assert store.get("k0") is None


class TestResumeValidation:
    def test_resume_without_manifest(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "empty"))
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            store.open_resume(FP, {})

    def test_resume_with_corrupt_manifest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        (tmp_path / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.open_resume(FP, {})

    def test_resume_with_wrong_schema(self, tmp_path):
        """An older build's checkpoint (pickled stage records) is
        refused by schema, with the remedy."""
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        manifest["schema"] = "repro.recovery/1"
        (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="schema.*rerun without --resume"):
            store.open_resume(FP, {})

    def test_resume_sees_saved_stages(self, tmp_path):
        """A resume keeps the records whose keys it computes again and
        forgets the rest; the manifest then lists only those."""
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        _save(store, "clustering", "k1", _clustering())
        _save(store, "metrics", "m1", PPAMetrics(hpwl=2.0, rwl=None))
        resumed = CheckpointStore(str(tmp_path))
        resumed.open_resume(dict(FP, seed=4), {"clustering": "k1", "metrics": "m2"})
        assert resumed.config["seed"] == 4
        assert resumed.stage_key("clustering") == "k1"
        assert resumed.stage_key("metrics") is None
        assert _load(resumed, "clustering", "k1").runtimes == {"clustering": 0.25}
        assert _load(resumed, "metrics", "m1") is None
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["stages"] == [["clustering", "k1"]]
        assert manifest["config"] == dict(FP, seed=4)

    def test_changed_config_forgets_stale_stages(self, tmp_path):
        """A resume under another design and seed is not refused: every
        stage it keys differently is forgotten, the V-P&R items (keyed
        by their own content) stay, and the manifest now records the
        new run, whose stages are then served under their new keys."""
        store = CheckpointStore(str(tmp_path))
        store.initialize(FP)
        _save(store, "clustering", "k1", _clustering())
        _save(store, "metrics", "m1", PPAMetrics(hpwl=2.0, rwl=None))
        item = {"ar": 1.0, "util": 0.9, "hpwl_cost": 1.0, "congestion_cost": 0.5}
        store.put("i0", item)
        other = dict(FP, seed=4, design="other")
        resumed = CheckpointStore(str(tmp_path))
        resumed.open_resume(other, {"clustering": "k2", "metrics": "m2"})
        assert resumed.config == other
        assert resumed.stage_key("clustering") is None
        assert resumed.stage_key("metrics") is None
        assert _load(resumed, "clustering", "k1") is None
        assert _load(resumed, "clustering", "k2") is None
        assert {k: resumed.get("i0")[k] for k in item} == item

        _save(resumed, "clustering", "k2", _clustering(7))
        again = CheckpointStore(str(tmp_path))
        assert again.open_existing() == other
        assert again.stage_key("clustering") == "k2"
        assert _load(again, "clustering", "k2").cluster_of.shape == (7,)
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["stages"] == [["clustering", "k2"]]


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
