"""The scalar graph walks and the re-layout forward the array-native ML
selector replaced, kept as the tests' oracle.

``FeatureExtractor.extract`` builds one CSR adjacency and runs every
pivot's BFS as one frontier loop; until then it built per-vertex Python
adjacency lists and walked them — each pivot twice (``bfs`` for the
cluster-level eccentricity / efficiency, ``bfs_brandes`` for the
per-node centralities), the clustering coefficients twice, the colouring
over sets.  ``TotalCostGNN.predict_shared`` keeps the batch node-major
and works in place; until then it transposed around every sparse
product.  The bodies below are verbatim (names lose their leading
underscore, the extractor reads the clique expansion from the double
loop in ``tests/netlist/reference.py``) and the array kernels must agree
with them ``np.array_equal`` — every feature column, the operator's
``data`` / ``indices`` / ``indptr``, every prediction.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.core.shapes import ShapeCandidate
from repro.ml.features import NUM_NODE_FEATURES, GraphSample
from repro.ml.layers import normalized_adjacency
from repro.netlist.design import Design
from repro.netlist.hypergraph import Hypergraph
from tests.netlist.reference import clique_expansion_reference

#: BFS pivots used by the centrality / distance approximations.
NUM_PIVOTS = 16


class ReferenceExtractor:
    """``FeatureExtractor`` as it walked per-vertex adjacency lists."""

    def __init__(self, num_pivots: int = NUM_PIVOTS, seed: int = 0) -> None:
        self.num_pivots = num_pivots
        self.seed = seed

    # ------------------------------------------------------------------
    def extract(
        self,
        sub: Design,
        candidate: Optional[ShapeCandidate] = None,
    ) -> GraphSample:
        """Extract features for a sub-netlist (ports excluded).

        Args:
            sub: The cluster sub-netlist (from V-P&R extraction).
            candidate: Shape filling the two design-parameter features;
                None leaves them zero (set later via ``with_shape``).
        """
        hgraph = Hypergraph.from_netlist(sub.arrays())
        n = hgraph.num_vertices
        rows, cols, weights = clique_expansion_reference(hgraph)
        operator = normalized_adjacency(rows, cols, weights, n)

        adjacency = adjacency_lists(n, rows, cols)
        degrees = np.array([len(a) for a in adjacency], dtype=float)

        cluster_feats = self._cluster_features(sub, hgraph, adjacency, degrees)
        cell_feats = self._cell_features(sub, adjacency, degrees)

        features = np.zeros((n, NUM_NODE_FEATURES))
        if candidate is not None:
            features[:, 0] = candidate.utilization
            features[:, 1] = candidate.aspect_ratio
        features[:, 2:19] = cluster_feats[None, :]
        features[:, 19:27] = cell_feats
        # One-hot cell class (8 classes); unknown classes fall back to
        # class 0, matching the historical dict.get default.
        arrays = sub.arrays()
        codes = arrays.m_class_code[arrays.inst_master].astype(np.int64)
        codes[codes < 0] = 0
        features[np.arange(len(codes)), 27 + codes] = 1.0
        return GraphSample(features=features, operator=operator)

    # ------------------------------------------------------------------
    def _cluster_features(
        self,
        sub: Design,
        hgraph: Hypergraph,
        adjacency: List[np.ndarray],
        degrees: np.ndarray,
    ) -> np.ndarray:
        """The 17 cluster-level features."""
        n = max(1, hgraph.num_vertices)
        arrays = sub.arrays()
        num_nets = arrays.num_nets
        num_pins = hgraph.num_pins
        wide = arrays.net_degree >= 2
        fanouts = arrays.net_fanout[wide]
        nets_f5_10 = int(((fanouts >= 5) & (fanouts <= 10)).sum())
        nets_f10 = int((fanouts > 10).sum())
        port_pin_nets = arrays.pin_net()[arrays.pin_inst < 0]
        border_nets = int(
            (np.bincount(port_pin_nets, minlength=num_nets) > 0).sum()
        )
        internal_nets = num_nets - border_nets
        total_area = sub.total_cell_area()
        avg_cell_degree = float(degrees.mean()) if len(degrees) else 0.0
        net_degrees = arrays.net_degree[wide]
        avg_net_degree = float(np.mean(net_degrees)) if len(net_degrees) else 0.0
        clustering_coeffs = clustering_coefficients(adjacency)
        # (The one line that is not verbatim: the source guarded this with
        # a dead ``if n`` and took the mean of an empty array.)
        avg_clustering = (
            float(clustering_coeffs.mean()) if len(clustering_coeffs) else 0.0
        )
        num_edges = sum(len(a) for a in adjacency) / 2
        density = 2.0 * num_edges / (n * (n - 1)) if n > 1 else 0.0

        ecc, efficiency = self._pivot_bfs_stats(adjacency)
        diameter = float(ecc.max()) if len(ecc) else 0.0
        radius = float(ecc[ecc > 0].min()) if (ecc > 0).any() else 0.0
        edge_connectivity = float(degrees.min()) if len(degrees) else 0.0
        colors = greedy_coloring(adjacency, degrees)

        return np.array(
            [
                n,
                num_nets,
                num_pins,
                nets_f5_10,
                nets_f10,
                internal_nets,
                border_nets,
                total_area,
                avg_cell_degree,
                avg_net_degree,
                avg_clustering,
                density,
                diameter,
                radius,
                edge_connectivity,
                colors,
                efficiency,
            ],
            dtype=float,
        )

    def _cell_features(
        self,
        sub: Design,
        adjacency: List[np.ndarray],
        degrees: np.ndarray,
    ) -> np.ndarray:
        """The 8 numeric cell-level features per node."""
        n = len(adjacency)
        areas = sub.arrays().current_inst_areas()
        avg_nbr_degree = np.zeros(n)
        for v in range(n):
            if len(adjacency[v]):
                avg_nbr_degree[v] = degrees[adjacency[v]].mean()
        betweenness, closeness, ecc = self._pivot_centralities(adjacency)
        degree_centrality = degrees / max(1, n - 1)
        clustering = clustering_coefficients(adjacency)
        out = np.zeros((n, 8))
        out[:, 0] = areas
        out[:, 1] = degrees
        out[:, 2] = avg_nbr_degree
        out[:, 3] = betweenness
        out[:, 4] = closeness
        out[:, 5] = degree_centrality
        out[:, 6] = clustering
        out[:, 7] = ecc
        return out

    # ------------------------------------------------------------------
    def _pivots(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        k = min(self.num_pivots, n)
        return rng.choice(n, size=k, replace=False) if n else np.zeros(0, dtype=int)

    def _pivot_bfs_stats(
        self, adjacency: List[np.ndarray]
    ) -> Tuple[np.ndarray, float]:
        """Eccentricity lower bounds + mean global efficiency estimate
        from BFS at a deterministic pivot sample."""
        n = len(adjacency)
        ecc = np.zeros(n)
        inv_dist_sum = 0.0
        pairs = 0
        for pivot in self._pivots(n):
            dist = bfs(adjacency, int(pivot))
            reachable = dist >= 0
            if reachable.any():
                ecc = np.maximum(ecc, np.where(reachable, dist, 0))
            finite = dist[(dist > 0)]
            inv_dist_sum += float((1.0 / finite).sum())
            pairs += max(0, n - 1)
        efficiency = inv_dist_sum / pairs if pairs else 0.0
        return ecc, efficiency

    def _pivot_centralities(
        self, adjacency: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Approximate betweenness / closeness / eccentricity.

        Brandes-sampled betweenness over the pivot set; closeness as
        (reachable count) / (distance sum) from the pivots; per-node
        eccentricity as the max pivot distance.
        """
        n = len(adjacency)
        betweenness = np.zeros(n)
        dist_sums = np.zeros(n)
        reach_counts = np.zeros(n)
        ecc = np.zeros(n)
        pivots = self._pivots(n)
        for pivot in pivots:
            dist, order, sigma, parents = bfs_brandes(adjacency, int(pivot))
            reachable = dist >= 0
            dist_sums += np.where(reachable, dist, 0)
            reach_counts += reachable
            ecc = np.maximum(ecc, np.where(reachable, dist, 0))
            delta = np.zeros(n)
            for v in reversed(order):
                for u in parents[v]:
                    delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
                if v != pivot:
                    betweenness[v] += delta[v]
        if len(pivots):
            betweenness /= len(pivots)
            with np.errstate(divide="ignore", invalid="ignore"):
                closeness = np.where(dist_sums > 0, reach_counts / dist_sums, 0.0)
        else:
            closeness = np.zeros(n)
        return betweenness, closeness, ecc


# ----------------------------------------------------------------------
# Graph helpers
# ----------------------------------------------------------------------
def adjacency_lists(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> List[np.ndarray]:
    """Unweighted adjacency lists from edge arrays."""
    lists: List[List[int]] = [[] for _ in range(n)]
    for u, v in zip(rows, cols):
        lists[int(u)].append(int(v))
        lists[int(v)].append(int(u))
    return [np.array(sorted(set(a)), dtype=np.int64) for a in lists]


def bfs(adjacency: List[np.ndarray], source: int) -> np.ndarray:
    """BFS distances (-1 unreachable)."""
    n = len(adjacency)
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def bfs_brandes(
    adjacency: List[np.ndarray], source: int
) -> Tuple[np.ndarray, List[int], np.ndarray, List[List[int]]]:
    """Brandes BFS stage: distances, visit order, path counts, preds."""
    n = len(adjacency)
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    parents: List[List[int]] = [[] for _ in range(n)]
    dist[source] = 0
    sigma[source] = 1.0
    order: List[int] = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
                parents[int(v)].append(u)
    return dist, order, sigma, parents


def clustering_coefficients(adjacency: List[np.ndarray]) -> np.ndarray:
    """Local clustering coefficient per node (exact)."""
    n = len(adjacency)
    out = np.zeros(n)
    neighbor_sets = [set(a.tolist()) for a in adjacency]
    for v in range(n):
        neighbors = adjacency[v]
        k = len(neighbors)
        if k < 2:
            continue
        links = 0
        for i in range(k):
            set_i = neighbor_sets[neighbors[i]]
            for j in range(i + 1, k):
                if int(neighbors[j]) in set_i:
                    links += 1
        out[v] = 2.0 * links / (k * (k - 1))
    return out


def greedy_coloring(adjacency: List[np.ndarray], degrees: np.ndarray) -> float:
    """Number of colors used by largest-degree-first greedy coloring."""
    n = len(adjacency)
    order = np.argsort(-degrees)
    color = np.full(n, -1, dtype=np.int64)
    max_color = -1
    for v in order:
        used = {int(color[u]) for u in adjacency[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        max_color = max(max_color, c)
    return float(max_color + 1) if n else 0.0


# ----------------------------------------------------------------------
# Inference
# ----------------------------------------------------------------------
def predict_shared_reference(model, features, operator):
    """``TotalCostGNN.predict_shared`` as it kept the batch ``(B, n, d)``:
    two re-layouts and five fresh temporaries per block, one Python-loop
    pool over the nodes."""
    op = operator.tocsr()
    batch, n, _f = features.shape
    h = model.normalize_features(features)

    def conv(block, x):
        z = x @ block.linear.weight.data + block.linear.bias.data
        d = z.shape[-1]
        # (B, n, d) -> (n, B*d): one shared-operator sparse product
        # covers every candidate.
        z = np.ascontiguousarray(z.transpose(1, 0, 2)).reshape(n, batch * d)
        z = op @ z
        z = z.reshape(n, batch, d).transpose(1, 0, 2)
        running = block.bn.running
        inv_std = 1.0 / np.sqrt(running["var"] + 1e-5)
        z = (
            block.bn.gamma.data * ((z - running["mean"]) * inv_std)
            + block.bn.beta.data
        )
        z = z * (z > 0)
        if block.use_skip:
            z = z + x
        return z

    accumulated = None
    for blocks in model.branches:
        out = h
        for block in blocks:
            out = conv(block, out)
        accumulated = out if accumulated is None else accumulated + out
    # Sequential per-node accumulation matches segment_mean's
    # np.add.at ordering, keeping the pooled embedding bit-identical
    # to the block-diagonal forward.
    pooled = np.zeros((batch, accumulated.shape[-1]))
    for i in range(n):
        pooled += accumulated[:, i, :]
    pooled /= max(n, 1)
    z = pooled @ model.head_linear1.weight.data + model.head_linear1.bias.data
    running = model.head_bn.running
    inv_std = 1.0 / np.sqrt(running["var"] + 1e-5)
    z = (
        model.head_bn.gamma.data * ((z - running["mean"]) * inv_std)
        + model.head_bn.beta.data
    )
    z = z * (z > 0)
    z = z @ model.head_linear2.weight.data + model.head_linear2.bias.data
    return model.denormalize(z.ravel())

