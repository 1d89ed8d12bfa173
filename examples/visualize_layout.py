"""Render placement, cluster map and congestion SVGs for a benchmark.

Produces the figures a placement paper is made of: the flat placement,
the same placement coloured by PPA-aware cluster, and the post-route
GCell congestion heat map.

    python examples/visualize_layout.py [benchmark-name] [output-dir]
"""

import sys
from pathlib import Path

from repro.core.ppa_clustering import ppa_aware_clustering
from repro.db import DesignDatabase
from repro.designs import load_benchmark
from repro.place import GlobalPlacer, PlacementProblem
from repro.route import GlobalRouter
from repro.viz import (
    render_clusters_svg,
    render_congestion_svg,
    render_placement_svg,
)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "jpeg"
    out_dir = Path(sys.argv[2] if len(sys.argv) > 2 else "/tmp/repro_viz")
    out_dir.mkdir(parents=True, exist_ok=True)

    design = load_benchmark(name, use_cache=False)
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(db)
    GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
    routing = GlobalRouter(design.arrays(), design.floorplan).run()

    placement = out_dir / f"{name}_placement.svg"
    clusters = out_dir / f"{name}_clusters.svg"
    congestion = out_dir / f"{name}_congestion.svg"
    render_placement_svg(design, path=str(placement))
    render_clusters_svg(design, clustering.cluster_of, path=str(clusters))
    render_congestion_svg(design, routing.grid, path=str(congestion))

    print(f"{name}: {design.num_instances} instances, "
          f"{clustering.num_clusters} clusters")
    print(f"wrote {placement}")
    print(f"wrote {clusters}")
    print(f"wrote {congestion} "
          f"(max congestion {routing.max_congestion:.2f})")


if __name__ == "__main__":
    main()
