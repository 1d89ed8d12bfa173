"""The paper's contribution: PPA-aware clustering-driven placement.

* :mod:`repro.core.rent` — weighted-average Rent exponent (Eq. 1).
* :mod:`repro.core.hier_clustering` — dendrogram-based hierarchy
  clustering (Algorithm 2, Figure 2).
* :mod:`repro.core.costs` — timing cost, switching cost (Eq. 2) and
  the extended heavy-edge rating (Eq. 3).
* :mod:`repro.core.ppa_clustering` — the enhanced multilevel FC
  clustering (Algorithm 1, lines 2-10).
* :mod:`repro.core.clustered_netlist` — clustered netlist + cluster
  .lef generation (lines 10, 13).
* :mod:`repro.core.shapes` / :mod:`repro.core.vpr` — the V-P&R shape
  selection framework (Section 3.2, Eqs. 4-5) and its shape-selector
  variants (exact, ML-accelerated, random, uniform).
* :mod:`repro.core.seeded` — seeded placement (lines 15-25).
* :mod:`repro.core.flow` — Algorithm 1 end-to-end, plus the default
  flat flow and the blob-placement [9] baseline.
"""

from repro.core.metrics import PPAMetrics
from repro.core.rent import weighted_average_rent
from repro.core.hier_clustering import (
    Dendrogram,
    HierarchyClusteringResult,
    hierarchy_based_clustering,
)
from repro.core.costs import CostConfig, compute_edge_scores
from repro.core.ppa_clustering import (
    ClusteringResult,
    PPAClusteringConfig,
    ppa_aware_clustering,
)
from repro.core.clustered_netlist import ClusteredNetlist, build_clustered_netlist
from repro.core.fanout import FleetExecutor, SweepExecutor
from repro.core.shapes import ShapeCandidate, default_candidate_grid
from repro.core.vpr import (
    MLShapeSelector,
    RandomShapeSelector,
    ShapeSelector,
    UniformShapeSelector,
    VPRConfig,
    VPRFramework,
    VPRShapeSelector,
)
from repro.core.seeded import SeededPlacementConfig, seeded_placement
from repro.core.flow import (
    ClusteredPlacementFlow,
    FlowConfig,
    FlowResult,
    blob_placement_flow,
    default_flow,
)
from repro.core.reporting import write_qor_json

__all__ = [
    "PPAMetrics",
    "weighted_average_rent",
    "Dendrogram",
    "HierarchyClusteringResult",
    "hierarchy_based_clustering",
    "CostConfig",
    "compute_edge_scores",
    "ClusteringResult",
    "PPAClusteringConfig",
    "ppa_aware_clustering",
    "ClusteredNetlist",
    "build_clustered_netlist",
    "SweepExecutor",
    "FleetExecutor",
    "ShapeCandidate",
    "default_candidate_grid",
    "ShapeSelector",
    "VPRShapeSelector",
    "MLShapeSelector",
    "RandomShapeSelector",
    "UniformShapeSelector",
    "VPRConfig",
    "VPRFramework",
    "SeededPlacementConfig",
    "seeded_placement",
    "ClusteredPlacementFlow",
    "FlowConfig",
    "FlowResult",
    "blob_placement_flow",
    "default_flow",
    "write_qor_json",
]
