"""Immutable hypergraph view of a netlist.

Every clustering algorithm in this package (the paper's PPA-aware
multilevel FC as well as the Louvain/Leiden/Best-Choice baselines)
operates on this flat, index-based view rather than on the object model,
mirroring how TritonPart consumes an OpenDB design.

Vertices are instance indices ``0..n-1``.  Hyperedges are tuples of
distinct vertex indices; nets reduced to fewer than two distinct
vertices (for example a net between one instance and a port) are kept
only when they still connect two or more vertices, but the mapping back
to net indices is preserved so timing and switching annotations can be
attached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.arrays import NetlistArrays, multi_arange


class Hypergraph:
    """A weighted hypergraph with per-vertex areas.

    Attributes:
        num_vertices: Number of vertices.
        edges: List of hyperedges; each is a tuple of distinct vertex ids.
        edge_weights: ndarray of float weights, one per hyperedge.
        vertex_areas: ndarray of float areas, one per vertex.
        edge_net_indices: For hypergraphs built from a design, the index
            of the originating net for each hyperedge (else -1).
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Sequence[Sequence[int]],
        edge_weights: Optional[Sequence[float]] = None,
        vertex_areas: Optional[Sequence[float]] = None,
        edge_net_indices: Optional[Sequence[int]] = None,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self._edges: Optional[List[Tuple[int, ...]]] = [tuple(e) for e in edges]
        n_edges = len(self._edges)
        if edge_weights is None:
            self.edge_weights = np.ones(n_edges)
        else:
            self.edge_weights = np.asarray(edge_weights, dtype=float)
        if vertex_areas is None:
            self.vertex_areas = np.ones(self.num_vertices)
        else:
            self.vertex_areas = np.asarray(vertex_areas, dtype=float)
        if edge_net_indices is None:
            self.edge_net_indices = np.full(n_edges, -1, dtype=np.int64)
        else:
            self.edge_net_indices = np.asarray(edge_net_indices, dtype=np.int64)
        if len(self.edge_weights) != n_edges:
            raise ValueError("edge_weights length mismatch")
        if len(self.vertex_areas) != self.num_vertices:
            raise ValueError("vertex_areas length mismatch")
        self._incidence: Optional[List[List[int]]] = None
        self._pin_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_csr(
        cls,
        num_vertices: int,
        indptr: np.ndarray,
        vertices: np.ndarray,
        edge_weights: Optional[Sequence[float]] = None,
        vertex_areas: Optional[Sequence[float]] = None,
        edge_net_indices: Optional[Sequence[int]] = None,
    ) -> "Hypergraph":
        """Construct directly from an edge->member CSR.

        The CSR is the primary storage; the ``edges`` list of tuples is
        materialized lazily only if some consumer asks for it.  This is
        the array-native path: :meth:`from_netlist` feeds it straight
        from :meth:`repro.netlist.arrays.NetlistArrays.hyperedge_csr`.
        """
        self = cls.__new__(cls)
        self.num_vertices = int(num_vertices)
        indptr = np.asarray(indptr, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.int64)
        n_edges = len(indptr) - 1
        self._edges = None
        self._pin_csr = (indptr, vertices)
        if edge_weights is None:
            self.edge_weights = np.ones(n_edges)
        else:
            self.edge_weights = np.asarray(edge_weights, dtype=float)
        if vertex_areas is None:
            self.vertex_areas = np.ones(self.num_vertices)
        else:
            self.vertex_areas = np.asarray(vertex_areas, dtype=float)
        if edge_net_indices is None:
            self.edge_net_indices = np.full(n_edges, -1, dtype=np.int64)
        else:
            self.edge_net_indices = np.asarray(edge_net_indices, dtype=np.int64)
        if len(self.edge_weights) != n_edges:
            raise ValueError("edge_weights length mismatch")
        if len(self.vertex_areas) != self.num_vertices:
            raise ValueError("vertex_areas length mismatch")
        self._incidence = None
        return self

    @property
    def edges(self) -> List[Tuple[int, ...]]:
        """Hyperedges as tuples of distinct vertex ids (lazy).

        CSR-built hypergraphs materialize this list on first access;
        prefer :meth:`pin_csr` in hot code.
        """
        if self._edges is None:
            indptr, verts = self._pin_csr
            vl = verts.tolist()
            il = indptr.tolist()
            self._edges = [
                tuple(vl[il[i] : il[i + 1]]) for i in range(len(il) - 1)
            ]
        return self._edges

    # ------------------------------------------------------------------
    @classmethod
    def from_netlist(
        cls,
        arrays: NetlistArrays,
        include_clock_nets: bool = False,
        max_edge_degree: Optional[int] = None,
    ) -> "Hypergraph":
        """Build the hypergraph over a flat netlist's instances.

        Built from the :class:`~repro.netlist.arrays.NetlistArrays` CSR
        kernels; the object-graph walk they replaced is the tests'
        oracle (``tests/netlist/reference.py``).

        Args:
            arrays: Source netlist: ``design.arrays()`` or a sub's
                columns.
            include_clock_nets: When False (the default, matching the
                paper's flow) clock nets are dropped; they would
                otherwise connect every flip-flop into one giant edge.
            max_edge_degree: Nets with more distinct vertices than this
                are skipped (a standard guard against degenerate
                high-fanout nets); None keeps everything.
        """
        indptr, verts, sel_nets = arrays.hyperedge_csr(
            include_clock=include_clock_nets,
            max_edge_degree=max_edge_degree,
        )
        return cls.from_csr(
            arrays.num_instances,
            indptr,
            verts,
            edge_weights=arrays.current_net_weights()[sel_nets],
            vertex_areas=arrays.current_inst_areas(),
            edge_net_indices=sel_nets,
        )

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of hyperedges."""
        return len(self.edge_weights)

    @property
    def num_pins(self) -> int:
        """Total pin count (sum of hyperedge degrees)."""
        if self._pin_csr is not None:
            return int(self._pin_csr[0][-1])
        return sum(len(e) for e in self.edges)

    def incidence(self) -> List[List[int]]:
        """Per-vertex lists of incident hyperedge indices (cached)."""
        if self._incidence is None:
            inc: List[List[int]] = [[] for _ in range(self.num_vertices)]
            for ei, edge in enumerate(self.edges):
                for v in edge:
                    inc[v].append(ei)
            self._incidence = inc
        return self._incidence

    def pin_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Edge -> member CSR ``(indptr, vertices)``, memoised.

        ``vertices[indptr[e]:indptr[e + 1]]`` are hyperedge ``e``'s
        members in edge order.
        """
        if self._pin_csr is None:
            counts = np.fromiter(
                (len(e) for e in self.edges),
                dtype=np.int64,
                count=len(self.edges),
            )
            indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            if len(self.edges):
                verts = np.fromiter(
                    (v for e in self.edges for v in e),
                    dtype=np.int64,
                    count=int(indptr[-1]),
                )
            else:
                verts = np.empty(0, dtype=np.int64)
            self._pin_csr = (indptr, verts)
        return self._pin_csr

    def vertex_degrees(self) -> np.ndarray:
        """Number of incident hyperedges per vertex."""
        e_indptr, e_verts = self.pin_csr()
        return np.bincount(e_verts, minlength=self.num_vertices).astype(
            np.int64
        )

    def neighbors(self, v: int) -> List[int]:
        """Distinct vertices sharing at least one hyperedge with ``v``."""
        seen = set()
        for ei in self.incidence()[v]:
            for u in self.edges[ei]:
                if u != v:
                    seen.add(u)
        return sorted(seen)

    # ------------------------------------------------------------------
    def clique_expansion(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standard clique expansion with weight ``w_e / (|e| - 1)``.

        Returns COO-style arrays ``(rows, cols, weights)`` of the
        resulting undirected graph with each pair emitted once
        (row < col), merging parallel edges by weight summation.  This
        is the graph representation fed to the GNN (Section 3.2) and to
        the Louvain/Leiden baselines.
        """
        indptr, verts = self.pin_csr()
        size = np.diff(indptr)
        pins = np.arange(len(verts))
        # Every pin pairs with the later pins of its edge, so the pairs
        # come out edge by edge in the (a, b > a) order of the members.
        later = np.repeat(indptr[1:], size) - pins - 1
        first = np.repeat(pins, later)
        if not len(first):
            empty = np.zeros(0)
            return empty.astype(np.int64), empty.astype(np.int64), empty
        second = multi_arange(pins + 1, later)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.repeat(self.edge_weights / (size - 1), size)[first]
        low = np.minimum(verts[first], verts[second])
        high = np.maximum(verts[first], verts[second])
        # A stable sort keeps parallel pairs in edge order and bincount
        # adds in array order, so each weight sum accumulates net by net.
        key = low * (int(high.max()) + 1) + high
        order = np.argsort(key, kind="stable")
        key = key[order]
        fresh = np.concatenate(([True], key[1:] != key[:-1]))
        weights = np.bincount(np.cumsum(fresh) - 1, weights=share[order])
        merged = order[fresh]
        return low[merged], high[merged], weights

    # ------------------------------------------------------------------
    def contract(
        self, cluster_of: Sequence[int]
    ) -> Tuple["Hypergraph", List[List[int]]]:
        """Contract vertices into clusters, producing the coarse graph.

        Args:
            cluster_of: For each vertex, its cluster id in ``0..k-1``.

        Returns:
            A pair ``(coarse, members)`` where ``coarse`` is the
            contracted hypergraph over ``k`` vertices (parallel edges
            merged by weight summation; edges internal to one cluster
            dropped) and ``members[c]`` lists the fine vertices of
            cluster ``c``.
        """
        cluster_of = np.asarray(cluster_of, dtype=np.int64)
        if len(cluster_of) != self.num_vertices:
            raise ValueError("cluster_of length mismatch")
        k = int(cluster_of.max()) + 1 if self.num_vertices else 0
        vorder = np.argsort(cluster_of, kind="stable")
        vcounts = np.bincount(cluster_of, minlength=k)
        bounds = np.concatenate(([0], np.cumsum(vcounts))).astype(np.int64)
        members: List[List[int]] = [
            vorder[bounds[c] : bounds[c + 1]].tolist() for c in range(k)
        ]
        areas = np.zeros(k)
        np.add.at(areas, cluster_of, self.vertex_areas)

        # Map every fine edge to its (sorted, deduplicated) coarse
        # member set; merge duplicate coarse edges in fine-edge order.
        num_fine = self.num_edges
        e_indptr, e_verts = self.pin_csr()
        ce = cluster_of[e_verts]
        eid = np.repeat(np.arange(num_fine, dtype=np.int64), np.diff(e_indptr))
        order = np.lexsort((ce, eid))
        ce_s = ce[order]
        eid_s = eid[order]
        if len(ce_s):
            keep = np.concatenate(
                ([True], (eid_s[1:] != eid_s[:-1]) | (ce_s[1:] != ce_s[:-1]))
            )
            ce_d = ce_s[keep]
            eid_d = eid_s[keep]
            deg = np.bincount(eid_d, minlength=num_fine)
        else:
            ce_d = ce_s
            deg = np.zeros(num_fine, dtype=np.int64)
        dptr = np.concatenate(([0], np.cumsum(deg))).astype(np.int64)
        merged_index: Dict[bytes, int] = {}
        edges: List[Tuple[int, ...]] = []
        fine_map = np.full(num_fine, -1, dtype=np.int64)
        for ei in range(num_fine):
            d = deg[ei]
            if d < 2:
                continue
            span = ce_d[dptr[ei] : dptr[ei + 1]]
            key = span.tobytes()
            ci = merged_index.get(key)
            if ci is None:
                ci = len(edges)
                merged_index[key] = ci
                edges.append(tuple(span.tolist()))
            fine_map[ei] = ci
        weights = np.zeros(len(edges))
        valid = fine_map >= 0
        # add.at accumulates sequentially in array (= fine-edge) order,
        # matching the reference dict accumulation bit for bit.
        np.add.at(weights, fine_map[valid], self.edge_weights[valid])
        coarse = Hypergraph(k, edges, edge_weights=weights, vertex_areas=areas)
        #: Fine-edge -> coarse-edge index (-1 when the edge collapsed
        #: inside one cluster); reused by score re-aggregation.
        coarse._fine_edge_map = fine_map
        return coarse, members

    # ------------------------------------------------------------------
    def external_edges(self, cluster_of: Sequence[int]) -> np.ndarray:
        """Boolean mask of hyperedges that cross cluster boundaries."""
        cluster_of = np.asarray(cluster_of, dtype=np.int64)
        mask = np.zeros(self.num_edges, dtype=bool)
        e_indptr, e_verts = self.pin_csr()
        if not len(e_verts):
            return mask
        ce = cluster_of[e_verts]
        counts = np.diff(e_indptr)
        safe_first = np.minimum(e_indptr[:-1], len(e_verts) - 1)
        differs = ce != np.repeat(ce[safe_first], counts)
        eid = np.repeat(np.arange(self.num_edges, dtype=np.int64), counts)
        mask[np.unique(eid[differs])] = True
        return mask

    def cut_size(self, cluster_of: Sequence[int]) -> float:
        """Total weight of hyperedges crossing cluster boundaries."""
        mask = self.external_edges(cluster_of)
        return float(self.edge_weights[mask].sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Hypergraph(V={self.num_vertices}, E={self.num_edges}, "
            f"pins={self.num_pins})"
        )
