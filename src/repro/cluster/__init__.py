"""Clustering algorithms: the paper's baselines and building blocks.

* First Choice (FC) multilevel coarsening — the TritonPart default the
  paper enhances (its PPA-aware version lives in
  :mod:`repro.core.ppa_clustering`).
* Best Choice, edge coarsening — classic placement clusterers.
* Louvain / Leiden — the modularity-based community detection used by
  blob placement [9] and by the paper's ablation (Table 5).
* Grouping constraints shared by all of them.
"""

from repro.cluster.graph import AdjacencyGraph
from repro.cluster.modularity import modularity
from repro.cluster.fc import FirstChoiceConfig, first_choice_clustering
from repro.cluster.best_choice import best_choice_clustering
from repro.cluster.edge_coarsening import edge_coarsening
from repro.cluster.louvain import louvain_communities
from repro.cluster.leiden import leiden_communities
from repro.cluster.constraints import GroupingConstraints
from repro.cluster.evaluation import evaluate_clustering

__all__ = [
    "AdjacencyGraph",
    "modularity",
    "FirstChoiceConfig",
    "first_choice_clustering",
    "best_choice_clustering",
    "edge_coarsening",
    "louvain_communities",
    "leiden_communities",
    "GroupingConstraints",
    "evaluate_clustering",
]
