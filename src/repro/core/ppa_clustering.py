"""PPA-aware clustering (Algorithm 1, lines 2-10; Section 3.1).

Orchestrates the paper's clustering pipeline:

1. extract the logical hierarchy and run the dendrogram/Rent clustering
   of Algorithm 2 (when hierarchy is present),
2. turn it into grouping constraints,
3. extract the top-|P| critical paths and vectorless switching
   activity with the STA substrate,
4. compute the Eq. 3 edge scores,
5. run the enhanced multilevel FC coarsening.

Singleton clusters are deliberately left unmerged (footnote 2 of the
paper: merging them into a catch-all cluster degrades post-route PPA).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.cluster.constraints import GroupingConstraints
from repro.cluster.fc import FirstChoiceConfig, first_choice_clustering
from repro.core.costs import CostConfig, compute_edge_scores
from repro.core.hier_clustering import (
    HierarchyClusteringResult,
    hierarchy_based_clustering,
)
from repro.db.database import DesignDatabase
from repro.sta.activity import propagate_activity
from repro.sta.analysis import TimingAnalyzer
from repro.sta.delay import FanoutWireModel
from repro.sta.graph import timing_graph_for
from repro.sta.paths import find_path_ends


@dataclass
class PPAClusteringConfig:
    """Knobs of the PPA-aware clustering.

    Attributes:
        cost: Eq. 2/3 scaling factors (alpha, beta, gamma, mu).
        num_paths: |P|, the number of critical paths extracted
            (OpenSTA group count; the paper uses 100000).
        target_cluster_size: Average instances per cluster; the FC
            target cluster count is ``n / target_cluster_size``.
        min_target_clusters: Lower bound on the FC target.
        use_hierarchy: Enable Algorithm 2 grouping constraints.
        use_timing: Enable the timing cost term.
        use_switching: Enable the switching cost term.
        seed: RNG seed for the FC visit order.
    """

    cost: CostConfig = field(default_factory=CostConfig)
    num_paths: int = 100000
    target_cluster_size: int = 100
    min_target_clusters: int = 8
    max_cluster_area_factor: float = 4.0
    use_hierarchy: bool = True
    use_timing: bool = True
    use_switching: bool = True
    seed: int = 0


@dataclass
class ClusteringResult:
    """Output of the PPA-aware clustering.

    Attributes:
        cluster_of: Cluster id per instance.
        hierarchy: Algorithm 2 result (None when hierarchy disabled or
            absent).
        edge_scores: Eq. 3 numerators actually used.
        runtimes: Stage -> seconds (hier_clustering, sta, clustering).
    """

    cluster_of: np.ndarray
    hierarchy: Optional[HierarchyClusteringResult] = None
    edge_scores: Optional[np.ndarray] = None
    runtimes: Dict[str, float] = field(default_factory=dict)

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return int(self.cluster_of.max()) + 1 if len(self.cluster_of) else 0

    def members(self) -> List[List[int]]:
        """Per-cluster lists of instance indices."""
        out: List[List[int]] = [[] for _ in range(self.num_clusters)]
        for v, c in enumerate(self.cluster_of):
            out[int(c)].append(v)
        return out

    def singleton_count(self) -> int:
        """Number of singleton clusters (kept unmerged per footnote 2)."""
        sizes = np.bincount(self.cluster_of, minlength=self.num_clusters)
        return int((sizes == 1).sum())


def ppa_aware_clustering(
    db: DesignDatabase,
    config: Optional[PPAClusteringConfig] = None,
) -> ClusteringResult:
    """Run the full PPA-aware clustering pipeline on a design database."""
    config = config or PPAClusteringConfig()
    design = db.design
    hgraph = db.hypergraph
    runtimes: Dict[str, float] = {}

    # --- Algorithm 1 lines 2-7: hierarchy clustering -> constraints ---
    hierarchy_result: Optional[HierarchyClusteringResult] = None
    constraints = GroupingConstraints.none(hgraph.num_vertices)
    if config.use_hierarchy and db.hierarchy.has_hierarchy():
        with obs.stage("cluster.hierarchy") as stage:
            hierarchy_result = hierarchy_based_clustering(hgraph, db.hierarchy)
            constraints = GroupingConstraints.from_clusters(
                hierarchy_result.cluster_of
            )
        runtimes["hier_clustering"] = stage.elapsed

    # --- Lines 4-5: timing paths and switching activity ----------------
    paths = None
    net_activity = None
    if config.use_timing or config.use_switching:
        with obs.stage("cluster.sta") as stage:
            graph = timing_graph_for(design.arrays())
            if config.use_timing and design.clock_period:
                analyzer = TimingAnalyzer(graph, FanoutWireModel())
                analyzer.update()
                paths = find_path_ends(analyzer, group_count=config.num_paths)
            if config.use_switching:
                net_activity = propagate_activity(graph)
        runtimes["sta"] = stage.elapsed

    # --- Line 9: enhanced multilevel clustering -------------------------
    with obs.stage("cluster.multilevel") as stage:
        edge_scores = compute_edge_scores(
            hgraph,
            config.cost,
            paths=paths if config.use_timing else None,
            net_activity=net_activity if config.use_switching else None,
            clock_period=design.clock_period,
        )
        target = max(
            config.min_target_clusters,
            hgraph.num_vertices // max(1, config.target_cluster_size),
        )
        fc_config = FirstChoiceConfig(
            target_clusters=target,
            max_cluster_area_factor=config.max_cluster_area_factor,
            seed=config.seed,
        )
        cluster_of = first_choice_clustering(
            hgraph,
            fc_config,
            edge_scores=edge_scores,
            constraints=constraints,
        )
    runtimes["clustering"] = stage.elapsed

    return ClusteringResult(
        cluster_of=cluster_of,
        hierarchy=hierarchy_result,
        edge_scores=edge_scores,
        runtimes=runtimes,
    )
