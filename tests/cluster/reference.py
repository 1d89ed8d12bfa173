"""The dict-accumulation First-Choice pass, kept as the tests' oracle.

``repro.cluster.fc._fc_pass`` rates neighbours with a CSR kernel; this
is the per-vertex Python body it replaced (PR 4), moved here verbatim.
It must produce the same cluster assignment for the same RNG seed.
"""

from __future__ import annotations

import random
from typing import Dict

import numpy as np

from repro.cluster.constraints import UNGROUPED
from repro.netlist.hypergraph import Hypergraph


def fc_pass_reference(
    hgraph: Hypergraph,
    edge_scores: np.ndarray,
    areas: np.ndarray,
    groups: np.ndarray,
    max_area: float,
    rng: random.Random,
    group_bonus: float = 1.0,
    hard_groups: bool = False,
) -> np.ndarray:
    """Reference FC pass (per-vertex dict rating accumulation)."""
    n = hgraph.num_vertices
    cluster_of = np.full(n, -1, dtype=np.int64)
    cluster_area = {}
    cluster_group = {}
    incidence = hgraph.incidence()
    edges = hgraph.edges
    next_cluster = 0

    order = list(range(n))
    rng.shuffle(order)
    for v in order:
        if cluster_of[v] != -1:
            continue
        # Rate all neighbours through shared hyperedges.
        rating: Dict[int, float] = {}
        for ei in incidence[v]:
            edge = edges[ei]
            k = len(edge)
            if k < 2:
                continue
            score = edge_scores[ei] / (k - 1)
            for u in edge:
                if u != v:
                    rating[u] = rating.get(u, 0.0) + score
        group_v = int(groups[v])
        area_v = float(areas[v])

        best_u = -1
        best_rating = 0.0
        for u, r in rating.items():
            cu = cluster_of[u]
            if cu == -1:
                group_u = int(groups[u])
                combined = area_v + float(areas[u])
            else:
                group_u = cluster_group[cu]
                combined = area_v + cluster_area[cu]
            if combined > max_area:
                continue
            same_group = (
                group_v != UNGROUPED and group_u != UNGROUPED and group_v == group_u
            )
            cross_group = (
                group_v != UNGROUPED and group_u != UNGROUPED and group_v != group_u
            )
            if hard_groups and cross_group:
                continue
            effective = r * (1.0 + group_bonus) if same_group else r
            if effective <= best_rating:
                continue
            best_rating = effective
            best_u = u

        if best_u == -1:
            cluster_of[v] = next_cluster
            cluster_area[next_cluster] = area_v
            cluster_group[next_cluster] = group_v
            next_cluster += 1
            continue
        cu = cluster_of[best_u]
        if cu == -1:
            cu = next_cluster
            next_cluster += 1
            cluster_of[best_u] = cu
            cluster_area[cu] = float(areas[best_u])
            cluster_group[cu] = int(groups[best_u])
        cluster_of[v] = cu
        cluster_area[cu] += area_v
        if cluster_group[cu] == UNGROUPED:
            cluster_group[cu] = group_v
    return cluster_of
