"""Node feature extraction for the Total-Cost GNN (Section 3.2).

Reproduces the paper's 28 features per node — 2 design parameters
(floorplan utilization and aspect ratio), 17 cluster-level features
(broadcast to every node) and 9 cell-level features — with the
categorical "cell type" one-hot encoded over the 8 cell classes, which
yields the model's 35-dimensional input (matching the paper's reported
input layer width).

Exact betweenness/closeness/eccentricity are O(nm) per graph; the
paper computes them offline for its training corpus.  We use
pivot-BFS approximations (documented per feature) so the ML-accelerated
selector stays fast at flow time; the approximation pivots are
deterministic.  The graph statistics are CSR kernels over the clique
expansion (:class:`_ClusterGraph`): one adjacency, one BFS frontier loop
shared by all pivots and by the cluster- and cell-level features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.shapes import ShapeCandidate
from repro.netlist.arrays import NetlistArrays, multi_arange
from repro.netlist.hypergraph import Hypergraph
from repro.ml.layers import normalized_adjacency

#: Input width of the convolution branches: 2 design params +
#: 17 cluster-level + 8 numeric cell-level + 8 one-hot cell classes.
NUM_NODE_FEATURES = 35

#: BFS pivots used by the centrality / distance approximations.
NUM_PIVOTS = 16


@dataclass
class GraphSample:
    """One (cluster graph, shape candidate) model input.

    Attributes:
        features: (n, 35) node feature matrix.
        operator: Normalised adjacency (GCN operator).
        label: Total Cost label (NaN when unlabelled).
        num_nodes: Node count.
    """

    features: np.ndarray
    operator: sp.csr_matrix
    label: float = float("nan")

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.features.shape[0]

    def with_shape(self, candidate: ShapeCandidate) -> "GraphSample":
        """Copy with the design-parameter features replaced."""
        features = self.features.copy()
        features[:, 0] = candidate.utilization
        features[:, 1] = candidate.aspect_ratio
        return GraphSample(features=features, operator=self.operator, label=self.label)

    def with_label(self, label: float) -> "GraphSample":
        """Copy with the label set."""
        return GraphSample(
            features=self.features, operator=self.operator, label=float(label)
        )


class FeatureExtractor:
    """Computes the 35-dim node features of a cluster sub-netlist."""

    def __init__(self, num_pivots: int = NUM_PIVOTS, seed: int = 0) -> None:
        self.num_pivots = num_pivots
        self.seed = seed

    # ------------------------------------------------------------------
    def extract(
        self,
        sub: NetlistArrays,
        candidate: Optional[ShapeCandidate] = None,
    ) -> GraphSample:
        """Extract features for a sub-netlist (ports excluded).

        Args:
            sub: The cluster sub-netlist's columns (from V-P&R
                extraction).
            candidate: Shape filling the two design-parameter features;
                None leaves them zero (set later via ``with_shape``).
        """
        hgraph = Hypergraph.from_netlist(sub)
        n = hgraph.num_vertices
        rows, cols, weights = hgraph.clique_expansion()
        operator = normalized_adjacency(rows, cols, weights, n)
        graph = _ClusterGraph(n, rows, cols, self._pivots(n))

        features = np.zeros((n, NUM_NODE_FEATURES))
        if candidate is not None:
            features[:, 0] = candidate.utilization
            features[:, 1] = candidate.aspect_ratio
        features[:, 2:19] = self._cluster_features(sub, hgraph, graph)[None, :]
        features[:, 19:27] = self._cell_features(sub, graph)
        # One-hot cell class (8 classes); unknown classes fall back to
        # class 0, matching the historical dict.get default.
        codes = sub.m_class_code[sub.inst_master].astype(np.int64)
        codes[codes < 0] = 0
        features[np.arange(len(codes)), 27 + codes] = 1.0
        return GraphSample(features=features, operator=operator)

    # ------------------------------------------------------------------
    def _cluster_features(
        self, arrays: NetlistArrays, hgraph: Hypergraph, graph: "_ClusterGraph"
    ) -> np.ndarray:
        """The 17 cluster-level features."""
        n = max(1, hgraph.num_vertices)
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
        # Python's sum in instance order, as ``Design.total_cell_area``.
        total_area = sum(arrays.current_inst_areas().tolist())
        degrees = graph.degrees
        avg_cell_degree = float(degrees.mean()) if len(degrees) else 0.0
        net_degrees = arrays.net_degree[wide]
        avg_net_degree = float(np.mean(net_degrees)) if len(net_degrees) else 0.0
        avg_clustering = float(graph.clustering.mean()) if len(degrees) else 0.0
        num_edges = len(graph.indices) / 2
        density = 2.0 * num_edges / (n * (n - 1)) if n > 1 else 0.0

        # Eccentricity lower bounds + mean global efficiency estimate
        # from the pivot BFS distances.
        ecc = graph.eccentricity
        inv_dist_sum = 0.0
        for dist in graph.dist:
            # One pairwise sum per pivot: the accumulation order is part
            # of the value.
            inv_dist_sum += float((1.0 / dist[dist > 0]).sum())
        pairs = len(graph.dist) * max(0, hgraph.num_vertices - 1)
        efficiency = inv_dist_sum / pairs if pairs else 0.0
        diameter = float(ecc.max()) if len(ecc) else 0.0
        radius = float(ecc[ecc > 0].min()) if (ecc > 0).any() else 0.0
        edge_connectivity = float(degrees.min()) if len(degrees) else 0.0

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
                graph.greedy_colors(),
                efficiency,
            ],
            dtype=float,
        )

    def _cell_features(self, sub: NetlistArrays, graph: "_ClusterGraph") -> np.ndarray:
        """The 8 numeric cell-level features per node.

        Brandes-sampled betweenness over the pivot set; closeness as
        (reachable count) / (distance sum) from the pivots; per-node
        eccentricity as the max pivot distance.
        """
        n = graph.num_vertices
        degrees = graph.degrees
        out = np.zeros((n, 8))
        out[:, 0] = sub.current_inst_areas()
        out[:, 1] = degrees
        # Degrees are integers, so the neighbour sum is exact in any order.
        neighbor_degrees = graph.adjacency @ degrees
        np.divide(neighbor_degrees, degrees, out=out[:, 2], where=degrees > 0)
        out[:, 3] = graph.betweenness()
        reached = (graph.dist >= 0).sum(axis=0)
        dist_sums = np.maximum(graph.dist, 0).sum(axis=0)
        np.divide(reached, dist_sums, out=out[:, 4], where=dist_sums > 0)
        out[:, 5] = degrees / max(1, n - 1)
        out[:, 6] = graph.clustering
        out[:, 7] = graph.eccentricity
        return out

    # ------------------------------------------------------------------
    def _pivots(self, n: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        k = min(self.num_pivots, n)
        return rng.choice(n, size=k, replace=False) if n else np.zeros(0, dtype=int)


# ----------------------------------------------------------------------
# Graph kernels
# ----------------------------------------------------------------------
class _ClusterGraph:
    """CSR adjacency of one cluster graph and the pivot BFS over it.

    ``indptr`` / ``indices`` are the deduplicated, sorted neighbour
    rows of the undirected graph whose edges ``rows`` / ``cols`` list
    once; ``dist`` is the ``(pivots, n)`` BFS distance table (-1 where
    unreachable).  Every float below reproduces the scalar queue walk
    it replaced bit for bit (``tests/ml/reference.py`` is that walk).
    """

    def __init__(
        self, n: int, rows: np.ndarray, cols: np.ndarray, pivots: np.ndarray
    ) -> None:
        pattern = sp.coo_matrix(
            (
                np.ones(2 * len(rows), dtype=np.int64),
                (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
            ),
            shape=(n, n),
        ).tocsr()
        pattern.data[:] = 1  # tocsr summed a pair listed more than once
        self.num_vertices = n
        self.adjacency = pattern
        self.indptr = pattern.indptr.astype(np.int64)
        self.indices = pattern.indices.astype(np.int64)
        self.pivots = pivots
        count = np.diff(self.indptr)
        self.degrees = count.astype(float)
        # Closed neighbour pairs of v = triangles through v = row sums
        # of A o (A A) halved, so 2 * links is the row sum itself.
        closed = (pattern @ pattern).multiply(pattern).sum(axis=1)
        closed = np.asarray(closed).ravel()
        self.clustering = np.zeros(n)
        np.divide(closed, count * (count - 1), out=self.clustering, where=count >= 2)
        self.dist, self._sigma, self._levels = self._sweep(count)
        # Unreachable is -1, so clamping at 0 leaves the reachable hops.
        hops = np.maximum(self.dist, 0)
        self.eccentricity = hops.max(axis=0, initial=0).astype(float)

    def _sweep(self, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray, list]:
        """Level-synchronous BFS from every pivot at once.

        State is flat over ``pivot * n + vertex`` keys.  A frontier is
        kept in queue order (pivot-major), so the next frontier is the
        first occurrence of each undiscovered key in the concatenated
        CSR rows of this one; path counts accumulate over the DAG edges
        in that same scan order.  Returns distances, path counts and,
        per level, the DAG edges ``(parent keys, child keys)`` sorted by
        descending queue position of the child — the order Brandes'
        back-propagation pops them in.
        """
        n = self.num_vertices
        size = len(self.pivots) * n
        dist = np.full(size, -1, dtype=np.int64)
        sigma = np.zeros(size)
        frontier = np.arange(len(self.pivots), dtype=np.int64) * n + self.pivots
        dist[frontier] = 0
        sigma[frontier] = 1.0
        levels = []
        while True:
            vertex = frontier % n
            width = count[vertex]
            parent = np.repeat(frontier, width)
            child = (parent - np.repeat(vertex, width)) + self.indices[
                multi_arange(self.indptr[vertex], width)
            ]
            fresh = dist[child] < 0
            if not fresh.any():
                return dist.reshape(len(self.pivots), n), sigma, levels
            parent, child = parent[fresh], child[fresh]
            _keys, first, inverse = np.unique(
                child, return_index=True, return_inverse=True
            )
            frontier = child[np.sort(first)]
            dist[frontier] = len(levels) + 1
            sigma += np.bincount(child, weights=sigma[parent], minlength=size)
            order = np.argsort(-first[inverse], kind="stable")
            levels.append((parent[order], child[order]))

    def betweenness(self) -> np.ndarray:
        """Brandes dependencies of the pivots, averaged."""
        n = self.num_vertices
        k = len(self.pivots)
        sigma = self._sigma
        delta = np.zeros(k * n)
        for parent, child in reversed(self._levels):
            share = sigma[parent] / sigma[child] * (1 + delta[child])
            # bincount adds in array order: deepest queue position first.
            delta += np.bincount(parent, weights=share, minlength=k * n)
        delta = delta.reshape(k, n)
        delta[np.arange(k), self.pivots] = 0.0
        total = np.zeros(n)
        for row in delta:
            total += row
        return total / k if k else total

    def greedy_colors(self) -> float:
        """Number of colors used by largest-degree-first greedy coloring."""
        starts = self.indptr.tolist()
        neighbors = self.indices.tolist()
        color = [-1] * self.num_vertices
        for v in np.argsort(-self.degrees).tolist():
            used = {color[u] for u in neighbors[starts[v] : starts[v + 1]]}
            c = 0
            while c in used:
                c += 1
            color[v] = c
        return float(max(color) + 1) if color else 0.0
