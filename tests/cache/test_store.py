"""EvaluationCache disk store: roundtrip, corruption tolerance, GC."""

import json
import os

import pytest

from repro import perf
from repro.cache import SCHEMA, EvaluationCache


KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62

RECORD = {"ar": 1.0, "util": 0.9, "hpwl_cost": 2.5, "congestion_cost": 0.5,
          "seconds": 1.25}


@pytest.fixture()
def cache(tmp_path):
    return EvaluationCache(str(tmp_path / "cache"))


class TestRoundtrip:
    def test_miss_on_empty(self, cache):
        assert cache.get(KEY_A) is None

    def test_put_then_get(self, cache):
        cache.put(KEY_A, RECORD)
        record = cache.get(KEY_A)
        assert record is not None
        assert record["hpwl_cost"] == 2.5
        assert record["congestion_cost"] == 0.5
        assert record["seconds"] == 1.25
        assert record["schema"] == SCHEMA
        assert record["key"] == KEY_A

    def test_entries_sharded_by_prefix(self, cache):
        cache.put(KEY_A, RECORD)
        assert (cache.directory / "objects" / "aa" / f"{KEY_A}.json").is_file()

    def test_marker_written_on_first_put(self, cache):
        assert not (cache.directory / EvaluationCache.MARKER).exists()
        cache.put(KEY_A, RECORD)
        marker = json.loads((cache.directory / EvaluationCache.MARKER).read_text())
        assert marker["schema"] == SCHEMA

    def test_get_counts_hits_and_misses(self, cache):
        perf.enable()
        perf.reset()
        try:
            cache.put(KEY_A, RECORD)
            cache.get(KEY_A)
            cache.get(KEY_B)
            assert perf.counter_value("vpr.cache.hit") == 1
            assert perf.counter_value("vpr.cache.miss") == 1
            assert perf.counter_value("vpr.cache.store") == 1
        finally:
            perf.reset()
            perf.disable()


class TestCorruptionTolerance:
    def test_truncated_entry_is_a_miss_and_removed(self, cache):
        cache.put(KEY_A, RECORD)
        path = cache._entry_path(KEY_A)
        path.write_text(path.read_text()[:10])
        assert cache.get(KEY_A) is None
        assert not path.exists()

    def test_binary_garbage_is_a_miss(self, cache):
        path = cache._entry_path(KEY_A)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00\xff\xfe not json")
        assert cache.get(KEY_A) is None
        assert not path.exists()

    def test_wrong_schema_is_a_miss(self, cache):
        cache.put(KEY_A, RECORD)
        path = cache._entry_path(KEY_A)
        record = json.loads(path.read_text())
        record["schema"] = "repro.cache/0"
        path.write_text(json.dumps(record))
        assert cache.get(KEY_A) is None
        assert not path.exists()

    def test_missing_required_field_is_a_miss(self, cache):
        cache.put(KEY_A, RECORD)
        path = cache._entry_path(KEY_A)
        record = json.loads(path.read_text())
        del record["hpwl_cost"]
        path.write_text(json.dumps(record))
        assert cache.get(KEY_A) is None

    @pytest.mark.parametrize(
        "damage",
        [
            {"congestion_cost": None},  # key deleted
            {"hpwl_cost": float("nan")},  # json.loads reads NaN back
            {"congestion_cost": float("inf")},
            {"hpwl_cost": "2.5"},
            {"hpwl_cost": True},
        ],
        ids=["missing", "nan", "inf", "string", "bool"],
    )
    def test_unservable_costs_are_one_corrupt_miss(self, cache, damage):
        """An entry a sweep could not use is counted once, as a corrupt
        miss — never as a hit the caller then has to second-guess."""
        cache.put(KEY_A, RECORD)
        path = cache._entry_path(KEY_A)
        record = json.loads(path.read_text())
        record.update(damage)
        record = {k: v for k, v in record.items() if v is not None}
        path.write_text(json.dumps(record))
        perf.enable()
        perf.reset()
        try:
            assert cache.get(KEY_A) is None
            assert perf.counter_value("vpr.cache.hit") == 0
            assert perf.counter_value("vpr.cache.miss") == 1
            assert perf.counter_value("vpr.cache.corrupt") == 1
        finally:
            perf.reset()
            perf.disable()
        assert (cache.session_hits, cache.session_misses) == (0, 1)
        assert not path.exists()

    def test_non_object_entry_is_a_miss(self, cache):
        path = cache._entry_path(KEY_A)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2]")
        assert cache.get(KEY_A) is None
        assert not path.exists()

    def test_corruption_counted(self, cache):
        perf.enable()
        perf.reset()
        try:
            path = cache._entry_path(KEY_A)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{")
            cache.get(KEY_A)
            assert perf.counter_value("vpr.cache.corrupt") == 1
            assert perf.counter_value("vpr.cache.miss") == 1
        finally:
            perf.reset()
            perf.disable()


class TestMaintenance:
    def _fill(self, cache, keys):
        for i, key in enumerate(keys):
            cache.put(key, dict(RECORD, hpwl_cost=float(i)))
            # Distinct mtimes so LRU ordering is well defined.
            path = cache._entry_path(key)
            os.utime(path, (1000.0 + i, 1000.0 + i))

    def test_stats(self, cache):
        self._fill(cache, [KEY_A, KEY_B])
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.to_dict() == {
            "entries": 2, "total_bytes": stats.total_bytes
        }

    def test_gc_evicts_oldest_first(self, cache):
        self._fill(cache, [KEY_A, KEY_B, KEY_C])
        evicted = cache.gc(max_entries=2)
        assert evicted == 1
        assert cache.get(KEY_A) is None  # oldest mtime went first
        assert cache.get(KEY_B) is not None
        assert cache.get(KEY_C) is not None

    def test_hit_refreshes_lru_recency(self, cache):
        self._fill(cache, [KEY_A, KEY_B, KEY_C])
        cache.get(KEY_A)  # bumps mtime to "now"
        assert cache.gc(max_entries=2) == 1
        assert cache.get(KEY_A) is not None
        assert cache.get(KEY_B) is None

    def test_gc_by_bytes(self, cache):
        self._fill(cache, [KEY_A, KEY_B, KEY_C])
        one_entry = cache.stats().total_bytes // 3
        cache.gc(max_entries=None, max_bytes=one_entry)
        assert cache.stats().entries == 1

    def test_gc_unbounded_is_a_noop(self, tmp_path):
        cache = EvaluationCache(
            str(tmp_path / "c"), max_entries=None, max_bytes=None
        )
        cache.put(KEY_A, RECORD)
        assert cache.gc() == 0
        assert cache.get(KEY_A) is not None

    def test_opportunistic_gc_after_write_interval(self, tmp_path, monkeypatch):
        import repro.cache.store as store_module

        monkeypatch.setattr(store_module, "GC_WRITE_INTERVAL", 3)
        cache = EvaluationCache(str(tmp_path / "c"), max_entries=2)
        self._fill(cache, [KEY_A, KEY_B])
        cache.put(KEY_C, RECORD)  # third put triggers the sweep
        assert cache.stats().entries == 2

    def test_clear(self, cache):
        self._fill(cache, [KEY_A, KEY_B])
        assert cache.clear() == 2
        assert cache.stats().entries == 0
        assert cache.get(KEY_A) is None
