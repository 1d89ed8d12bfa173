"""Checkpoint items are addressed by content, not by cluster id.

A resumed run whose clustering moved one member out of a cluster must
recompute that cluster and still reuse every untouched one — even when
the cluster ids stay the same.  A (cluster, candidate) key would serve
the changed cluster's stale costs instead.
"""

import pytest

from repro import perf
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRFramework
from repro.db.database import DesignDatabase
from repro.recovery.checkpoint import CheckpointStore

CONFIG = VPRConfig(min_cluster_instances=60, max_vpr_clusters=2, placer_iterations=2)


@pytest.fixture(scope="module")
def clusters(small_design):
    db = DesignDatabase(small_design)
    members = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=120)
    ).members()
    swept, _skipped = CONFIG.swept_clusters(members)
    assert len(swept) == 2
    return small_design, members, swept


def _costs(sweep):
    return [(e.hpwl_cost, e.congestion_cost) for e in sweep.evaluations]


def test_reuse_follows_content_not_cluster_ids(clusters, tmp_path):
    design, members, swept = clusters
    store = CheckpointStore(str(tmp_path / "ckpt"))
    store.initialize({"test": "content-keyed items"})
    first = VPRFramework(CONFIG, checkpoint=store).sweep_clusters(
        design, members, swept
    )

    # One member of cluster 0 moves to a cluster the sweep skips; both
    # swept clusters keep their ids.
    moved = [list(m) for m in members]
    changed, kept = swept
    other = next(c for c in range(len(moved)) if c not in swept)
    moved[other].append(moved[changed].pop())

    perf.enable()
    perf.reset()
    try:
        again = VPRFramework(CONFIG, checkpoint=store).sweep_clusters(
            design, moved, swept
        )
        reused = perf.counter_value("recovery.item.reused")
        saved = perf.counter_value("recovery.item.saved")
    finally:
        perf.disable()
    grid = len(CONFIG.candidates)
    assert grid == 20
    assert reused == grid  # cluster 1, untouched, is served whole
    assert saved == grid  # cluster 0 is recomputed and recorded

    fresh = VPRFramework(CONFIG).sweep_clusters(design, moved, swept)
    assert _costs(again[0]) == _costs(fresh[0])
    assert again[0].best == fresh[0].best
    assert _costs(again[0]) != _costs(first[0])
    assert _costs(again[1]) == _costs(first[1]) == _costs(fresh[1])
