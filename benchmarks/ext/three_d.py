"""Two-tier 3D placement study (the paper's future work).

The paper's conclusion plans to "study the benefits of our PPA-aware
clustering and ML-accelerated V-P&R framework in the context of 3D
placement".  This module implements a face-to-face two-tier model:

1. cluster the netlist (PPA-aware or a baseline),
2. bipartition the *clusters* across two tiers, balancing area and
   minimising inter-tier net crossings (a greedy FM-style pass over
   cluster moves),
3. place both tiers in a shared, half-area footprint — stacked tiers
   share the xy plane, modelled by doubling the placer's density
   budget — seeded from the cluster placement as in Algorithm 1,
4. report the 3D wirelength (xy HPWL; inter-tier hops cost one via),
   via count, and the footprint/wirelength reduction vs. the 2D flow.

The classic 3D expectation — wirelength scaling toward 1/sqrt(2) of 2D
as the footprint halves, traded against via count — is the shape this
extension reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.clustered_netlist import build_clustered_netlist
from repro.core.ppa_clustering import (
    PPAClusteringConfig,
    ppa_aware_clustering,
)
from repro.core.seeded import SeededPlacementConfig, seeded_placement
from repro.db.database import DesignDatabase
from repro.netlist.design import Design, Floorplan
from repro.place.hpwl import hpwl
from repro.place.placer import PlacerConfig

#: Electrical cost of one face-to-face via, expressed as equivalent
#: wirelength (microns) for the 3D wirelength metric.
VIA_EQUIVALENT_WL = 1.0


@dataclass
class ThreeDResult:
    """Outcome of the two-tier flow.

    Attributes:
        wirelength_3d: Total xy HPWL plus via cost (microns).
        wirelength_2d: The same design's 2D flow wirelength (microns).
        via_count: Nets crossing tiers (one F2F via each).
        footprint_2d: 2D core area (square microns).
        footprint_3d: Per-tier core area of the 3D flow.
        tier_of_cluster: Tier id per cluster.
        tier_areas: Cell area per tier.
        num_clusters: Clusters formed before tier assignment.
    """

    wirelength_3d: float
    wirelength_2d: float
    via_count: int
    footprint_2d: float
    footprint_3d: float
    tier_of_cluster: np.ndarray
    tier_areas: np.ndarray
    num_clusters: int

    @property
    def wirelength_ratio(self) -> float:
        """3D / 2D wirelength (the headline 3D benefit, < 1 is a win)."""
        if self.wirelength_2d <= 0:
            return float("nan")
        return self.wirelength_3d / self.wirelength_2d


def assign_tiers(
    cluster_of: np.ndarray,
    cluster_areas: np.ndarray,
    crossing_weights: Dict[tuple, float],
    max_imbalance: float = 0.1,
    passes: int = 4,
) -> np.ndarray:
    """Bipartition clusters across two tiers.

    Greedy FM-style refinement from an alternating-by-area start:
    repeatedly move the cluster with the largest crossing-weight gain
    whose move keeps the area imbalance within ``max_imbalance``.

    Args:
        cluster_of: Instance -> cluster (only used for sizing).
        cluster_areas: Area per cluster.
        crossing_weights: (min cluster, max cluster) -> connecting net
            weight; pairs absent cost nothing.
        max_imbalance: Allowed |area0 - area1| / total.
        passes: FM passes.

    Returns:
        Tier (0/1) per cluster.
    """
    k = len(cluster_areas)
    order = np.argsort(-cluster_areas)
    tier = np.zeros(k, dtype=np.int64)
    areas = [0.0, 0.0]
    for c in order:  # greedy area balance start
        t = 0 if areas[0] <= areas[1] else 1
        tier[c] = t
        areas[t] += cluster_areas[c]
    total_area = float(cluster_areas.sum()) or 1.0

    # Adjacency over clusters.
    neighbors: List[Dict[int, float]] = [dict() for _ in range(k)]
    for (a, b), w in crossing_weights.items():
        neighbors[a][b] = neighbors[a].get(b, 0.0) + w
        neighbors[b][a] = neighbors[b].get(a, 0.0) + w

    def gain(c: int) -> float:
        same = other = 0.0
        for u, w in neighbors[c].items():
            if tier[u] == tier[c]:
                same += w
            else:
                other += w
        return other - same  # crossing reduction if c moves

    def crossing_delta(c: int, d: int) -> float:
        """Crossing-weight reduction of swapping c and d (c, d on
        opposite tiers)."""
        delta = gain(c) + gain(d)
        # Swapping directly-connected clusters keeps their edge
        # crossing, which both gains double-counted as removed.
        shared = neighbors[c].get(d, 0.0)
        return delta - 2.0 * shared

    for _pass in range(passes):
        moved = False
        # Phase 1: balance-respecting single moves.
        for c in sorted(range(k), key=lambda c: -gain(c)):
            g = gain(c)
            if g <= 0:
                break
            source = int(tier[c])
            target = 1 - source
            new_imbalance = abs(
                (areas[target] + cluster_areas[c])
                - (areas[source] - cluster_areas[c])
            ) / total_area
            if new_imbalance > max_imbalance:
                continue
            tier[c] = target
            areas[source] -= cluster_areas[c]
            areas[target] += cluster_areas[c]
            moved = True
        # Phase 2: cross-tier swaps (balance-neutral up to the area
        # difference), escaping single-move balance locks.
        tier0 = [c for c in range(k) if tier[c] == 0]
        tier1 = [c for c in range(k) if tier[c] == 1]
        best_swap = None
        for c in tier0:
            for d in tier1:
                delta = crossing_delta(c, d)
                if delta <= 0:
                    continue
                new_imbalance = abs(
                    (areas[0] - cluster_areas[c] + cluster_areas[d])
                    - (areas[1] - cluster_areas[d] + cluster_areas[c])
                ) / total_area
                if new_imbalance > max_imbalance:
                    continue
                if best_swap is None or delta > best_swap[0]:
                    best_swap = (delta, c, d)
        if best_swap is not None:
            _delta, c, d = best_swap
            tier[c], tier[d] = 1, 0
            areas[0] += cluster_areas[d] - cluster_areas[c]
            areas[1] += cluster_areas[c] - cluster_areas[d]
            moved = True
        if not moved:
            break
    return tier


def _cluster_crossing_weights(
    design: Design, cluster_of: np.ndarray
) -> Dict[tuple, float]:
    """Net weight between each cluster pair (clique-expanded)."""
    out: Dict[tuple, float] = {}
    for net in design.nets:
        if net.is_clock:
            continue
        clusters = sorted({int(cluster_of[i.index]) for i in net.instances()})
        if len(clusters) < 2:
            continue
        share = net.weight / (len(clusters) - 1)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                key = (clusters[i], clusters[j])
                out[key] = out.get(key, 0.0) + share
    return out


def three_d_placement_flow(
    design: Design,
    clustering_config: Optional[PPAClusteringConfig] = None,
    wirelength_2d: Optional[float] = None,
    seed: int = 0,
) -> ThreeDResult:
    """Run the two-tier clustered placement flow.

    Args:
        design: The design (mutated: floorplan shrunk, placement
            committed; pass a fresh copy).
        clustering_config: PPA-aware clustering knobs.
        wirelength_2d: Reference 2D wirelength; None measures it by
            running the 2D seeded flow first on the same clustering.
        seed: Determinism seed.

    Returns:
        The 3D result record.
    """
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, clustering_config or PPAClusteringConfig(seed=seed)
    )
    clustered = build_clustered_netlist(
        design, clustering.cluster_of, io_net_weight=4.0
    )
    footprint_2d = design.floorplan.core_area

    # Reference 2D run (same clustering) when not supplied.
    if wirelength_2d is None:
        seeded_placement(clustered, SeededPlacementConfig(tool="openroad"))
        wirelength_2d = hpwl(design.arrays())

    # Tier assignment over clusters.
    crossing = _cluster_crossing_weights(design, clustering.cluster_of)
    tier_of_cluster = assign_tiers(
        clustering.cluster_of, clustered.cluster_areas, crossing
    )
    tier_areas = np.zeros(2)
    for c, area in enumerate(clustered.cluster_areas):
        tier_areas[int(tier_of_cluster[c])] += area

    # Shrink the footprint to half area (same aspect, same margin).
    fp = design.floorplan
    shrink = 1.0 / math.sqrt(2.0)
    design.floorplan = Floorplan(
        die_width=fp.core_width * shrink + 2 * fp.core_margin,
        die_height=fp.core_height * shrink + 2 * fp.core_margin,
        core_margin=fp.core_margin,
        row_height=fp.row_height,
        target_utilization=fp.target_utilization,
    )
    for i, name in enumerate(sorted(design.ports)):
        port = design.ports[name]
        port.x *= shrink
        port.y *= shrink
    for inst in design.instances:
        if inst.fixed:
            inst.x = min(inst.x * shrink, design.floorplan.core_urx)
            inst.y = min(inst.y * shrink, design.floorplan.core_ury)

    # Stacked tiers share the xy plane: density budget 2.0.
    config = SeededPlacementConfig(tool="openroad")
    config.cluster_placer = PlacerConfig(
        max_iterations=20, target_overflow=0.12, target_density=2.0, seed=seed
    )
    config.incremental_placer = PlacerConfig(
        incremental=True, target_density=2.0, seed=seed
    )
    clustered_3d = build_clustered_netlist(
        design, clustering.cluster_of, io_net_weight=4.0
    )
    seeded_placement(clustered_3d, config)

    # 3D wirelength: xy HPWL + one via per tier-crossing net.
    xy_wl = hpwl(design.arrays())
    vias = 0
    for net in design.nets:
        if net.is_clock:
            continue
        tiers = {
            int(tier_of_cluster[clustering.cluster_of[i.index]])
            for i in net.instances()
        }
        if len(tiers) > 1:
            vias += 1
    wirelength_3d = xy_wl + vias * VIA_EQUIVALENT_WL

    return ThreeDResult(
        wirelength_3d=wirelength_3d,
        wirelength_2d=wirelength_2d,
        via_count=vias,
        footprint_2d=footprint_2d,
        footprint_3d=design.floorplan.core_area,
        tier_of_cluster=tier_of_cluster,
        tier_areas=tier_areas,
        num_clusters=clustering.num_clusters,
    )
