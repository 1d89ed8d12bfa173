"""Multi-writer discipline on one shared cache directory.

A ``repro serve`` daemon makes every concurrent job a parent-side
writer of the shared store: puts race with puts, GC sweeps race with
GC sweeps, and any entry a sweep saw in its directory walk may vanish
before it stats or unlinks it.  These tests pin the tolerant
semantics: no exception ever escapes, vanished entries count as
already collected, and a stale walk never causes extra evictions.
"""

import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.cache import EvaluationCache

RECORD = {
    "ar": 1.0,
    "util": 0.9,
    "hpwl_cost": 2.5,
    "congestion_cost": 0.5,
    "seconds": 0.01,
}


def _key(tag) -> str:
    return hashlib.sha256(str(tag).encode()).hexdigest()


class TestConcurrentVanish:
    """Deterministic replays of the stat/unlink races."""

    def test_gc_tolerates_entries_vanishing_before_unlink(
        self, tmp_path, monkeypatch
    ):
        """Entries vanishing between GC's stat pass and its unlinks
        must neither raise nor count as this sweep's evictions."""
        cache = EvaluationCache(str(tmp_path), max_entries=None)
        paths = []
        for i in range(10):
            key = _key(i)
            cache.put(key, RECORD)
            path = cache._entry_path(key)
            os.utime(path, (i, i))  # deterministic LRU order
            paths.append(path)
        by_age = sorted(paths, key=lambda p: p.stat().st_mtime)
        # Freeze the directory walk and the stat view, then let "a
        # concurrent writer" collect 4 entries — 2 of the oldest (which
        # this sweep would have evicted itself) and 2 newer ones — so
        # this GC's unlinks run against a stale picture.
        stale_walk = list(cache._entries())
        cache._entries = lambda: iter(stale_walk)
        frozen = {path: path.stat() for path in paths}
        real_stat = Path.stat
        monkeypatch.setattr(
            Path,
            "stat",
            lambda self, **kw: frozen.get(self) or real_stat(self, **kw),
        )
        for path in by_age[:2] + by_age[5:7]:
            os.unlink(path)
        evicted = cache.gc(max_entries=5)
        # 10 seen - 5 allowed = 5 removals needed; 2 of the oldest were
        # already gone, so only 3 are *our* evictions.
        assert evicted == 3
        survivors = [p for p in paths if os.path.exists(p)]
        assert len(survivors) == 3

    def test_gc_tolerates_entries_vanishing_before_stat(self, tmp_path):
        cache = EvaluationCache(str(tmp_path), max_entries=None)
        for i in range(6):
            cache.put(_key(i), RECORD)
        walk = list(cache._entries())
        for path in walk[:3]:
            path.unlink()
        cache._entries = lambda: iter(walk)
        # Only 3 entries remain; bound of 3 means nothing to evict.
        assert cache.gc(max_entries=3) == 0

    def test_stats_tolerates_vanishing_entries(self, tmp_path):
        cache = EvaluationCache(str(tmp_path))
        for i in range(4):
            cache.put(_key(i), RECORD)
        walk = list(cache._entries())
        walk[0].unlink()
        cache._entries = lambda: iter(walk)
        stats = cache.stats()
        assert stats.entries == 3

    def test_entries_tolerates_missing_object_root(self, tmp_path):
        cache = EvaluationCache(str(tmp_path / "never-created"))
        assert list(cache._entries()) == []
        assert cache.gc(max_entries=1) == 0


def _writer_process(directory: str, tag: int, rounds: int) -> None:
    """One parent-side writer hammering put/get/gc on a shared store."""
    cache = EvaluationCache(directory, max_entries=40)
    for i in range(rounds):
        cache.put(_key((tag, i)), RECORD)
        cache.get(_key((tag, i - 7)))  # mtime-bumping hits + misses
        if i % 5 == tag % 5:
            cache.gc()
        if i % 11 == 0:
            cache.stats()
    cache.gc(max_entries=20)


class TestTwoWriterStress:
    def test_two_writer_processes_put_and_gc_one_directory(self, tmp_path):
        """Two real writer processes racing put/gc sweeps: every
        operation must complete cleanly and the shared store must end
        up within the GC bound."""
        directory = str(tmp_path / "shared")
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_writer_process, args=(directory, tag, 120))
            for tag in range(2)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers), [
            proc.exitcode for proc in writers
        ]
        cache = EvaluationCache(directory)
        stats = cache.stats()
        assert stats.entries <= 40
        # Whatever survived is intact, readable JSON.
        for path in cache._entries():
            record = json.loads(path.read_text())
            assert record["hpwl_cost"] == RECORD["hpwl_cost"]

    def test_gc_racing_clear_never_raises(self, tmp_path):
        directory = str(tmp_path / "shared")
        cache = EvaluationCache(directory)
        for i in range(30):
            cache.put(_key(i), RECORD)
        ctx = multiprocessing.get_context("fork")
        clearer = ctx.Process(
            target=EvaluationCache(directory).clear, args=()
        )
        clearer.start()
        try:
            for _ in range(5):
                cache.gc(max_entries=5)
        finally:
            clearer.join(timeout=30)
        assert clearer.exitcode == 0
        assert cache.stats().entries <= 5


#: Fields that carry the computing run's wall seconds, not its result.
TIMING_FIELDS = {"seconds", "runtime", "runtimes", "sweep_runtime"}


def _without_timing(record):
    if isinstance(record, dict):
        return {
            k: _without_timing(v) for k, v in record.items() if k not in TIMING_FIELDS
        }
    return record


def _decoded(path: Path):
    """An entry as comparable data, timing fields dropped."""
    from repro.codec import decode_frame

    if path.suffix == ".json":
        return _without_timing(json.loads(path.read_bytes()))
    header, columns = decode_frame(path.read_bytes())
    return (
        _without_timing(header),
        {k: v.tolist() for k, v in columns.items() if k not in TIMING_FIELDS},
    )


class TestRacingWritersAgreeOnQoR:
    """Two writers of one key need not write the same bytes (each
    record carries its own run's seconds); whichever rename lands last
    wins, and either record serves the same result."""

    def test_two_cold_runs_write_equal_records_but_for_timing(self, tmp_path):
        from repro.core.flow import ClusteredPlacementFlow, FlowConfig
        from repro.core.ppa_clustering import PPAClusteringConfig
        from repro.core.shapes import default_candidate_grid
        from repro.core.vpr import VPRConfig
        from repro.designs import DesignSpec, generate_design

        def cold_run(store):
            design = generate_design(
                DesignSpec(
                    "racing",
                    300,
                    clock_period=0.7,
                    logic_depth=8,
                    hierarchy_depth=2,
                    hierarchy_branching=3,
                    seed=3,
                )
            )
            config = FlowConfig(
                clustering_config=PPAClusteringConfig(target_cluster_size=100),
                vpr_config=VPRConfig(
                    min_cluster_instances=60,
                    max_vpr_clusters=2,
                    placer_iterations=2,
                    candidates=default_candidate_grid()[:4],
                ),
                run_routing=True,
                cache_dir=str(store),
            )
            ClusteredPlacementFlow(config).run(design)
            return {
                p.relative_to(store): p
                for p in store.rglob("*")
                if p.is_file() and p.name != "CACHE.json"
            }

        first = cold_run(tmp_path / "a")
        second = cold_run(tmp_path / "b")
        shared = sorted(set(first) & set(second))
        assert {p.suffix for p in shared} == {".json", ".rec"}
        for key in shared:
            assert _decoded(first[key]) == _decoded(second[key]), key
