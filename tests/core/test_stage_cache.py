"""Flow stages through the shared cache, in process.

A repeated flow is answered from stage records; a flow that shares
only upstream stages with an earlier one reuses those, and its sweep
still reads every V-P&R item it can from the same cache.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro import perf
from repro.core.flow import ClusteredPlacementFlow, FlowConfig
from repro.core.ppa_clustering import PPAClusteringConfig
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import MLShapeSelector, VPRConfig, VPRShapeSelector
from repro.designs import DesignSpec, generate_design

COUNTERS = (
    "cache.stage.hit",
    "cache.stage.miss",
    "cache.stage.store",
    "cache.stage.corrupt",
    "vpr.cache.hit",
    "vpr.cache.miss",
    "recovery.item.saved",
)


def _design():
    return generate_design(
        DesignSpec(
            "stagecache",
            400,
            clock_period=0.7,
            logic_depth=10,
            hierarchy_depth=2,
            hierarchy_branching=3,
            seed=7,
        )
    )


def _config(cache_dir, **vpr) -> FlowConfig:
    return FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=120),
        vpr_config=VPRConfig(
            min_cluster_instances=60,
            max_vpr_clusters=2,
            placer_iterations=2,
            candidates=default_candidate_grid()[:6],
            **vpr,
        ),
        run_routing=True,
        cache_dir=str(cache_dir),
    )


def _run(config):
    perf.enable()
    perf.reset()
    try:
        result = ClusteredPlacementFlow(config).run(_design())
        counters = {name: perf.counter_value(name) for name in COUNTERS}
    finally:
        perf.disable()
    return result, counters


def _qor(result):
    return dataclasses.replace(result.metrics, runtimes={})


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    cache = tmp_path_factory.mktemp("stage_cache") / "cache"
    result, counters = _run(_config(cache))
    return cache, result, counters


def test_cold_run_stores_every_shared_stage(cold):
    _cache, result, counters = cold
    assert result.selection.sweeps
    # clustering, vpr, seeded, metrics (vpr_digests only with a checkpoint)
    assert counters["cache.stage.miss"] == 4
    assert counters["cache.stage.store"] == 4
    assert counters["vpr.cache.miss"] > 0


def test_repeated_run_is_answered_from_stages(cold):
    cache, result, _ = cold
    warm, counters = _run(_config(cache))
    assert counters["cache.stage.hit"] == 4
    assert counters["cache.stage.miss"] == 0
    assert counters["vpr.cache.hit"] == counters["vpr.cache.miss"] == 0
    assert _qor(warm) == _qor(result)
    assert warm.selection.shapes == result.selection.shapes


def test_a_served_run_reports_the_seconds_it_spent(cold):
    """A served stage's runtime entry is what serving it cost this run,
    not what computing its record cost the run that stored it."""
    cache, _result, _ = cold
    start = time.perf_counter()
    warm, counters = _run(_config(cache))
    wall = time.perf_counter() - start
    assert counters["cache.stage.hit"] == 4
    runtimes = warm.metrics.runtimes
    assert sum(runtimes.values()) <= wall
    assert sorted(runtimes) == ["clustering", "metrics", "seeded", "vpr"]
    assert warm.metrics.placement_runtime <= wall
    assert warm.selection.runtime == runtimes["vpr"] > 0.0


def test_a_flow_leaves_its_callers_objects_as_it_found_them(tmp_path):
    """One selector and one clustering config serve two runs: the first
    with a checkpoint, a cache and its own seed, the second with no
    store.  The second reads and writes neither of the first's stores,
    and the caller's objects end as they began."""
    clustering = PPAClusteringConfig(target_cluster_size=120)
    selector = VPRShapeSelector(_config(tmp_path).vpr_config)
    framework = selector.framework
    own = (framework.config, framework.checkpoint, framework.cache)
    stored = dataclasses.replace(
        _config(tmp_path / "cache"),
        clustering_config=clustering,
        shape_selector=selector,
        run_routing=False,
        seed=5,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    _, counters = _run(stored)
    assert counters["recovery.item.saved"] > 0 and counters["vpr.cache.miss"] > 0

    def files():
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    bare = dataclasses.replace(stored, cache_dir=None, checkpoint_dir=None, seed=0)
    result, counters = _run(bare)
    assert result.selection.sweeps
    assert counters["recovery.item.saved"] == 0
    assert counters["vpr.cache.miss"] == counters["vpr.cache.hit"] == 0
    assert files() == before
    assert clustering.seed == PPAClusteringConfig().seed
    assert framework.config is own[0]
    assert framework.checkpoint is own[1] and framework.cache is own[2]


def test_a_selection_only_knob_misses_the_vpr_stage_but_no_item(cold):
    """``delta`` weighs the two costs at selection time: the vpr stage
    (and everything after it) is a new key, but every (cluster,
    candidate) evaluation is the cold run's, served from the cache."""
    cache, result, cold_counters = cold
    changed, counters = _run(_config(cache, delta=0.5))
    assert counters["cache.stage.hit"] == 1  # clustering
    assert counters["cache.stage.miss"] == 3  # vpr, seeded, metrics
    assert counters["vpr.cache.miss"] == 0
    assert counters["vpr.cache.hit"] == cold_counters["vpr.cache.miss"]
    fresh, _ = _run(dataclasses.replace(_config(cache, delta=0.5), cache_dir=None))
    assert _qor(changed) == _qor(fresh)
    assert changed.selection.shapes == fresh.selection.shapes


def test_a_damaged_stage_entry_is_recomputed(cold, tmp_path):
    import shutil

    cache, result, _ = cold
    copy = tmp_path / "cache"
    shutil.copytree(cache, copy)
    for record in (copy / "stages").rglob("*.rec"):
        record.write_bytes(record.read_bytes()[:-7])
    warm, counters = _run(_config(copy))
    assert counters["cache.stage.corrupt"] == 4
    assert counters["cache.stage.store"] == 4
    assert _qor(warm) == _qor(result)


def test_a_selector_without_identity_keeps_its_stages_out_of_the_cache(tmp_path):
    """A hand-built ML selector has no stable identity: only the
    clustering stage, upstream of it, is shared."""
    grid = default_candidate_grid()[:6]
    config = dataclasses.replace(
        _config(tmp_path / "cache"),
        shape_selector=MLShapeSelector(
            lambda sub, candidates: [float(i) for i in range(len(candidates))],
            VPRConfig(min_cluster_instances=60, max_vpr_clusters=2, candidates=grid),
        ),
    )
    _, first = _run(config)
    _, second = _run(config)
    assert first["cache.stage.store"] == 1
    assert second["cache.stage.hit"] == 1
    assert second["cache.stage.miss"] == 0
