"""First Choice (FC) multilevel coarsening [Karypis-Kumar].

The TritonPart default clusterer ("MFC" in the paper's Table 5): visit
vertices in random order, merge each with its highest-rated neighbour
(heavy-edge rating ``sum_e w_e / (|e| - 1)`` over shared hyperedges),
repeat on the contracted hypergraph until the target cluster count.

The rating is pluggable: the PPA-aware clustering of
:mod:`repro.core.ppa_clustering` supplies per-hyperedge *scores*
(connectivity + timing + switching, Eq. 3) and grouping constraints;
the vanilla configuration reduces to classic FC.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cluster.constraints import UNGROUPED, GroupingConstraints
from repro.netlist.hypergraph import Hypergraph


@dataclass
class FirstChoiceConfig:
    """FC coarsening knobs.

    Attributes:
        target_clusters: Stop once the coarse vertex count reaches this.
        max_cluster_area_factor: A cluster may not exceed this multiple
            of the perfectly-balanced cluster area.
        max_passes: Safety bound on coarsening passes.
        min_pass_reduction: Stop when a pass shrinks the vertex count by
            less than this fraction (coarsening has converged).
        group_bonus: Rating multiplier bonus for same-group candidate
            pairs — hierarchy groups act as *clustering guides* (the
            paper's wording), attracting same-module merges while still
            allowing a strongly-rated cross-module merge (e.g. a
            timing-critical path spanning modules).
        hard_groups: Forbid cross-group merges outright (TritonPart's
            hard grouping semantics) instead of the soft bonus.
        seed: RNG seed for visit order.
    """

    target_clusters: int = 200
    max_cluster_area_factor: float = 4.0
    max_passes: int = 12
    min_pass_reduction: float = 0.02
    group_bonus: float = 1.0
    hard_groups: bool = False
    seed: int = 0


def _rating_rows(
    hgraph: Hypergraph, edge_scores: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex neighbour ratings as a CSR (indptr, neighbours, ratings).

    The heavy-edge rating ``sum_e score_e / (|e| - 1)`` over every
    ordered pair (v, u) sharing a hyperedge, computed once per pass as
    array kernels instead of per-visited-vertex dict accumulation.

    Bit-identical to the reference accumulation: contributions to one
    (v, u) pair are summed left-to-right in hyperedge order (one
    vectorized add per duplicate level), and each row lists neighbours
    in first-occurrence order — the reference dict's key order.
    """
    n = hgraph.num_vertices
    e_indptr, e_verts = hgraph.pin_csr()
    k = np.diff(e_indptr)
    valid = k >= 2
    if not valid.any():
        z = np.zeros(n + 1, dtype=np.int64)
        return z, np.empty(0, dtype=np.int64), np.empty(0)
    ve = np.flatnonzero(valid)
    kv = k[ve]
    contrib = edge_scores[ve] / (kv - 1)
    # Ordered pairs per edge: block of k*k entries, (member-major,
    # member-minor), self-pairs dropped.
    blocks = kv * kv
    P = int(blocks.sum())
    offsets = np.concatenate(([0], np.cumsum(blocks)))
    t = np.arange(P, dtype=np.int64) - np.repeat(offsets[:-1], blocks)
    kk = np.repeat(kv, blocks)
    base = np.repeat(e_indptr[ve], blocks)
    v_arr = e_verts[base + t // kk]
    u_arr = e_verts[base + t % kk]
    c_arr = np.repeat(contrib, blocks)
    keep = v_arr != u_arr
    v_arr = v_arr[keep]
    u_arr = u_arr[keep]
    c_arr = c_arr[keep]
    # Group by (v, u); lexsort is stable, so within a group entries
    # stay in hyperedge (= reference accumulation) order.
    order = np.lexsort((u_arr, v_arr))
    gv = v_arr[order]
    gu = u_arr[order]
    gc = c_arr[order]
    m = len(gv)
    head = np.concatenate(([True], (gv[1:] != gv[:-1]) | (gu[1:] != gu[:-1])))
    starts = np.flatnonzero(head)
    gid = np.cumsum(head) - 1
    pos = np.arange(m, dtype=np.int64) - starts[gid]
    rating = gc[starts].copy()
    for lvl in range(1, int(pos.max()) + 1 if m else 0):
        sel = np.flatnonzero(pos == lvl)
        if not len(sel):
            break
        rating[gid[sel]] = rating[gid[sel]] + gc[sel]
    # Row candidate order: the reference dict's first-occurrence order
    # is the global pair order restricted to the row.
    first_seen = order[starts]
    row_order = np.lexsort((first_seen, gv[starts]))
    cand_v = gv[starts][row_order]
    cand_u = gu[starts][row_order]
    cand_r = rating[row_order]
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(cand_v, minlength=n)))
    ).astype(np.int64)
    return indptr, cand_u, cand_r


def _fc_pass(
    hgraph: Hypergraph,
    edge_scores: np.ndarray,
    areas: np.ndarray,
    groups: np.ndarray,
    max_area: float,
    rng: random.Random,
    group_bonus: float = 1.0,
    hard_groups: bool = False,
) -> np.ndarray:
    """One FC pass; returns a (renumbered) cluster id per vertex.

    The neighbour ratings come precomputed from the CSR kernel in
    :func:`_rating_rows`; the visit loop itself stays sequential (each
    merge decision depends on the clusters formed so far) but only
    performs the candidate *selection*, which makes the pass an order
    of magnitude cheaper than the per-vertex dict accumulation it
    replaced (the tests' oracle, ``tests/cluster/reference.py``, which
    this pass must match assignment for assignment).
    """
    n = hgraph.num_vertices
    indptr, cand_u, cand_r = _rating_rows(hgraph, np.asarray(edge_scores))
    row_ptr = indptr.tolist()
    cu_list = cand_u.tolist()
    cr_list = cand_r.tolist()
    areas_list = [float(a) for a in areas]
    groups_list = [int(g) for g in groups]

    cluster_of = [-1] * n
    cluster_area: List[float] = []
    cluster_group: List[int] = []
    bonus_mult = 1.0 + group_bonus

    order = list(range(n))
    rng.shuffle(order)
    for v in order:
        if cluster_of[v] != -1:
            continue
        group_v = groups_list[v]
        area_v = areas_list[v]

        best_u = -1
        best_rating = 0.0
        for i in range(row_ptr[v], row_ptr[v + 1]):
            u = cu_list[i]
            cu = cluster_of[u]
            if cu == -1:
                group_u = groups_list[u]
                combined = area_v + areas_list[u]
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
            r = cr_list[i]
            effective = r * bonus_mult if same_group else r
            if effective <= best_rating:
                continue
            best_rating = effective
            best_u = u

        if best_u == -1:
            cluster_of[v] = len(cluster_area)
            cluster_area.append(area_v)
            cluster_group.append(group_v)
            continue
        cu = cluster_of[best_u]
        if cu == -1:
            cu = len(cluster_area)
            cluster_of[best_u] = cu
            cluster_area.append(areas_list[best_u])
            cluster_group.append(groups_list[best_u])
        cluster_of[v] = cu
        cluster_area[cu] += area_v
        if cluster_group[cu] == UNGROUPED:
            cluster_group[cu] = group_v
    return np.asarray(cluster_of, dtype=np.int64)


def first_choice_clustering(
    hgraph: Hypergraph,
    config: Optional[FirstChoiceConfig] = None,
    edge_scores: Optional[Sequence[float]] = None,
    constraints: Optional[GroupingConstraints] = None,
) -> np.ndarray:
    """Multilevel FC clustering.

    Args:
        hgraph: The netlist hypergraph.
        config: Coarsening knobs.
        edge_scores: Per-hyperedge score replacing the plain weight in
            the heavy-edge rating (the paper's Eq. 3 numerator).  None
            uses ``hgraph.edge_weights``.
        constraints: Grouping constraints (hierarchy-derived ``Cmty``).

    Returns:
        Cluster id per vertex (0..k-1).
    """
    config = config or FirstChoiceConfig()
    rng = random.Random(config.seed)
    n = hgraph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if edge_scores is None:
        scores = hgraph.edge_weights.copy()
    else:
        scores = np.asarray(edge_scores, dtype=float)
        if len(scores) != hgraph.num_edges:
            raise ValueError("edge_scores length mismatch")
    if constraints is None:
        constraints = GroupingConstraints.none(n)

    total_area = float(hgraph.vertex_areas.sum())
    target = max(1, config.target_clusters)
    max_area = config.max_cluster_area_factor * total_area / target

    assignment = np.arange(n, dtype=np.int64)
    working = hgraph
    working_scores = scores
    working_groups = constraints.group_of.copy()

    # Coarsening depth is bounded by max_passes but usually exits early
    # (target reached / pass stopped reducing); the progress task's
    # total clamps down to the executed pass count on completion.
    obs.start_task("cluster.passes", config.max_passes, unit="passes")
    for _pass in range(config.max_passes):
        if working.num_vertices <= target:
            break
        obs.advance("cluster.passes")
        cluster_of = _fc_pass(
            working,
            working_scores,
            working.vertex_areas,
            working_groups,
            max_area,
            rng,
            group_bonus=config.group_bonus,
            hard_groups=config.hard_groups,
        )
        num_clusters = int(cluster_of.max()) + 1
        reduction = 1.0 - num_clusters / working.num_vertices
        if reduction < config.min_pass_reduction:
            break
        assignment = cluster_of[assignment]
        coarse, members = working.contract(cluster_of)
        # Carry scores: contracted edges merge by summed *score*, which
        # we rebuild by re-aggregating fine scores over coarse edges.
        working_scores = _contract_scores(
            working, cluster_of, working_scores, coarse
        )
        new_groups = np.full(coarse.num_vertices, UNGROUPED, dtype=np.int64)
        for c, member_list in enumerate(members):
            for v in member_list:
                if working_groups[v] != UNGROUPED:
                    new_groups[c] = working_groups[v]
                    break
        working_groups = new_groups
        working = coarse
        if num_clusters <= target:
            break
    obs.complete("cluster.passes")
    return assignment


def _contract_scores(
    fine: Hypergraph,
    cluster_of: np.ndarray,
    fine_scores: np.ndarray,
    coarse: Hypergraph,
) -> np.ndarray:
    """Aggregate per-edge scores onto the contracted hypergraph."""
    fine_map = getattr(coarse, "_fine_edge_map", None)
    if fine_map is not None and len(fine_map) == fine.num_edges:
        # The coarse graph came from fine.contract(cluster_of): reuse
        # its fine-edge -> coarse-edge map.  add.at sums in fine-edge
        # order, identical to the reference dict accumulation.
        out = np.zeros(coarse.num_edges)
        valid = fine_map >= 0
        np.add.at(out, fine_map[valid], np.asarray(fine_scores)[valid])
        return out
    merged: Dict[Tuple[int, ...], float] = {}
    for ei, edge in enumerate(fine.edges):
        coarse_edge = tuple(sorted({int(cluster_of[v]) for v in edge}))
        if len(coarse_edge) < 2:
            continue
        merged[coarse_edge] = merged.get(coarse_edge, 0.0) + float(fine_scores[ei])
    out = np.zeros(coarse.num_edges)
    for ei, edge in enumerate(coarse.edges):
        out[ei] = merged.get(tuple(edge), float(coarse.edge_weights[ei]))
    return out
