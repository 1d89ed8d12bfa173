"""Extension: L-shaped cluster shapes (the paper's future work).

The paper's conclusion lists non-rectangular cluster shapes as ongoing
research.  This bench runs the extended V-P&R sweep (20 rectangles +
24 L-shapes) on the largest clusters of jpeg and reports whether any
L-shape achieves a better Total Cost than the best rectangle.
"""

import pytest

from benchmarks._tables import format_table, publish
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from benchmarks.ext.shape_extensions import LShapeVPRFramework
from repro.core.vpr import VPRConfig
from repro.db.database import DesignDatabase
from repro.designs import load_benchmark


def _run():
    design = load_benchmark("jpeg", use_cache=False)
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=200)
    )
    members = clustering.members()
    config = VPRConfig(min_cluster_instances=100, placer_iterations=4)
    framework = LShapeVPRFramework(config)
    eligible = framework.config.eligible_clusters(members)[:3]
    records = []
    for c in eligible:
        record = framework.sweep_with_lshapes(design, members[c])
        record["cluster"] = c
        record["size"] = len(members[c])
        records.append(record)
    return records


def test_lshape_extension(benchmark):
    records = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = []
    for r in records:
        rows.append(
            [
                f"cluster {r['cluster']} ({r['size']} insts)",
                f"{r['best_rect_cost']:.4f}",
                str(r["best_rect"]),
                f"{r['best_lshape_cost']:.4f}",
                str(r["best_lshape"]),
                "L-shape" if r["lshape_wins"] else "rectangle",
            ]
        )
    text = format_table(
        "Extension: L-shaped vs rectangular cluster shapes (jpeg)",
        ["Cluster", "Rect cost", "Best rect", "L cost", "Best L", "Winner"],
        rows,
        note=(
            "Total Cost (Eq. 4-5) over 20 rectangles + 24 L-shapes per "
            "cluster.  The paper leaves non-rectangular shapes as future "
            "work; this implements the L-shaped variant."
        ),
    )
    publish("ext_lshape", text)
    assert records
