"""Session counters, persisted lifetime totals, and the shared
cache-summary derivation (``repro cache stats`` / ``GET /stats`` /
the sweep parent's end-of-sweep ``vpr.cache.summary`` event)."""

import json

import pytest

from repro.cache import EvaluationCache, derive_cache_summary
from repro.cache.store import CacheStats
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig, VPRShapeSelector
from repro.db.database import DesignDatabase


KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62

RECORD = {"ar": 1.0, "util": 0.9, "hpwl_cost": 2.5, "congestion_cost": 0.5,
          "seconds": 1.25}


@pytest.fixture()
def cache(tmp_path):
    return EvaluationCache(str(tmp_path / "cache"))


class TestSessionCounters:
    def test_get_and_put_update_session_counters(self, cache):
        assert (cache.session_hits, cache.session_misses,
                cache.session_stores) == (0, 0, 0)
        cache.get(KEY_A)
        assert cache.session_misses == 1
        cache.put(KEY_A, RECORD)
        assert cache.session_stores == 1
        cache.get(KEY_A)
        assert cache.session_hits == 1

    def test_corrupt_entry_counts_as_miss(self, cache):
        cache.put(KEY_A, RECORD)
        path = next(cache._entries())
        path.write_text("{ torn")
        assert cache.get(KEY_A) is None
        assert cache.session_misses == 1

    def test_pool_sweep_session_counters_equal_inline(
        self, small_design, tmp_path
    ):
        # Every lookup happens in the sweep's own process, so a fleet
        # sweep's session covers the whole sweep with nothing to fold
        # back from its workers.
        db = DesignDatabase(small_design)
        members = ppa_aware_clustering(
            db, PPAClusteringConfig(target_cluster_size=120)
        ).members()

        def session(jobs, directory="cache"):
            handle = EvaluationCache(str(tmp_path / directory))
            config = VPRConfig(
                min_cluster_instances=60,
                max_vpr_clusters=2,
                placer_iterations=2,
                candidates=default_candidate_grid()[:4],
                jobs=jobs,
            )
            VPRShapeSelector(config, cache=handle).select(small_design, members)
            return (
                handle.session_hits, handle.session_misses,
                handle.session_stores,
            )

        assert session(jobs=1) == session(jobs=2, directory="pool") == (0, 8, 8)
        assert session(jobs=1) == session(jobs=2) == (8, 0, 0)


class TestLifetimeTotals:
    def test_totals_empty_on_cold_store(self, cache):
        assert cache.read_totals() == {"hits": 0, "misses": 0, "stores": 0}

    def test_bump_accumulates_across_instances(self, cache, tmp_path):
        cache.bump_totals(hits=3, misses=2, stores=1)
        reopened = EvaluationCache(str(tmp_path / "cache"))
        totals = reopened.bump_totals(hits=1)
        assert totals == {"hits": 4, "misses": 2, "stores": 1}

    def test_torn_totals_file_reads_as_zero(self, cache):
        cache.bump_totals(hits=5)
        (cache.directory / cache.TOTALS).write_text("{ torn json")
        assert cache.read_totals() == {"hits": 0, "misses": 0, "stores": 0}

    def test_negative_and_junk_fields_clamped(self, cache):
        cache.directory.mkdir(parents=True, exist_ok=True)
        (cache.directory / cache.TOTALS).write_text(
            json.dumps({"hits": -4, "misses": "junk", "stores": 2})
        )
        assert cache.read_totals() == {"hits": 0, "misses": 0, "stores": 2}


class TestDeriveSummary:
    def test_summary_shape_and_ratio(self):
        summary = derive_cache_summary(
            3, 1, 2, CacheStats(entries=7, total_bytes=4096)
        )
        assert summary == {
            "hits": 3,
            "misses": 1,
            "stores": 2,
            "hit_ratio": 0.75,
            "entries": 7,
            "bytes_on_disk": 4096,
        }

    def test_zero_lookups_zero_ratio(self):
        summary = derive_cache_summary(
            0, 0, 0, CacheStats(entries=0, total_bytes=0)
        )
        assert summary["hit_ratio"] == 0.0

    def test_matches_real_store_traffic(self, cache):
        cache.get(KEY_A)                 # miss
        cache.put(KEY_A, RECORD)         # store
        cache.get(KEY_A)                 # hit
        cache.put(KEY_B, RECORD)         # store
        summary = derive_cache_summary(
            cache.session_hits,
            cache.session_misses,
            cache.session_stores,
            cache.stats(),
        )
        assert summary["hits"] == 1
        assert summary["misses"] == 1
        assert summary["stores"] == 2
        assert summary["hit_ratio"] == 0.5
        assert summary["entries"] == 2
        assert summary["bytes_on_disk"] > 0
