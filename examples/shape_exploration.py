"""V-P&R shape exploration for one cluster (Figure 3).

Extracts the largest PPA-aware cluster of a benchmark, sweeps the
paper's 20 (aspect ratio, utilization) candidates through virtualized
place-and-route, and prints the Total Cost surface plus the chosen
shape.  Then compares the flow-level effect of V-P&R, Random and
Uniform shape selection (the Table 6 ablation at example scale).

    python examples/shape_exploration.py [benchmark-name]
"""

import sys

from repro.core import ClusteredPlacementFlow, FlowConfig
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import ASPECT_RATIOS, UTILIZATIONS
from repro.core.vpr import (
    RandomShapeSelector,
    UniformShapeSelector,
    VPRConfig,
    VPRFramework,
    VPRShapeSelector,
)
from repro.db import DesignDatabase
from repro.designs import load_benchmark


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "jpeg"
    design = load_benchmark(name, use_cache=False)
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=150)
    )
    members = clustering.members()
    config = VPRConfig(min_cluster_instances=100)
    framework = VPRFramework(config)
    eligible = framework.config.eligible_clusters(members)
    if not eligible:
        print("no cluster above the V-P&R bound; try a larger benchmark")
        return
    cluster = eligible[0]
    print(
        f"=== {name}: V-P&R sweep on cluster {cluster} "
        f"({len(members[cluster])} instances) ==="
    )
    sweep = framework.sweep_cluster(design, members[cluster], cluster_id=cluster)

    by_shape = {
        (e.candidate.aspect_ratio, e.candidate.utilization): e
        for e in sweep.evaluations
    }
    print("\nTotal Cost surface (rows: aspect ratio; cols: utilization):")
    header = "AR\\U " + "".join(f"{u:>9.2f}" for u in UTILIZATIONS)
    print(header)
    for ar in ASPECT_RATIOS:
        cells = []
        for u in UTILIZATIONS:
            ev = by_shape[(ar, u)]
            mark = "*" if ev.candidate == sweep.best else " "
            cells.append(f"{ev.total(config.delta):>8.4f}{mark}")
        print(f"{ar:>4.2f} " + "".join(cells))
    print(f"\nchosen shape: {sweep.best}  (sweep took {sweep.runtime:.2f}s)")

    print("\n=== flow-level shape ablation (post-route TNS) ===")
    for label, selector in (
        ("Random", RandomShapeSelector(seed=0)),
        ("Uniform", UniformShapeSelector()),
        ("V-P&R", VPRShapeSelector(config)),
    ):
        d = load_benchmark(name, use_cache=False)
        flow = ClusteredPlacementFlow(
            FlowConfig(tool="innovus", shape_selector=selector, vpr_config=config)
        )
        metrics = flow.run(d).metrics
        print(
            f"  {label:>8}: rWL={metrics.rwl:>10.0f}  "
            f"WNS={metrics.wns * 1e3:>7.0f}ps  TNS={metrics.tns:>8.2f}ns  "
            f"Power={metrics.power:.3f}mW"
        )


if __name__ == "__main__":
    main()
