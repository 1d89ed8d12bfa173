"""Unit + property tests for the hypergraph view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.hypergraph import Hypergraph


def simple_hypergraph():
    """5 vertices, 3 edges: {0,1}, {1,2,3}, {3,4}."""
    return Hypergraph(
        5,
        [(0, 1), (1, 2, 3), (3, 4)],
        edge_weights=[1.0, 2.0, 3.0],
        vertex_areas=[1, 1, 2, 2, 1],
    )


@st.composite
def random_hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    num_edges = draw(st.integers(min_value=1, max_value=30))
    edges = []
    for _ in range(num_edges):
        size = draw(st.integers(min_value=2, max_value=min(n, 5)))
        edge = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        edges.append(tuple(sorted(edge)))
    return Hypergraph(n, edges)


class TestBasics:
    def test_counts(self):
        hg = simple_hypergraph()
        assert hg.num_vertices == 5
        assert hg.num_edges == 3
        assert hg.num_pins == 7

    def test_incidence(self):
        hg = simple_hypergraph()
        inc = hg.incidence()
        assert inc[1] == [0, 1]
        assert inc[4] == [2]

    def test_neighbors(self):
        hg = simple_hypergraph()
        assert hg.neighbors(1) == [0, 2, 3]
        assert hg.neighbors(4) == [3]

    def test_degrees(self):
        hg = simple_hypergraph()
        assert list(hg.vertex_degrees()) == [1, 2, 1, 2, 1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 1)], edge_weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 1)], vertex_areas=[1.0])


class TestFromDesign:
    def test_excludes_clock(self, toy_design):
        hg = Hypergraph.from_netlist(toy_design.arrays())
        # clk_net connects 1 instance + port -> would be 1 vertex, and
        # is a clock net anyway: excluded either way.
        assert all(ni != toy_design.net("clk_net").index for ni in hg.edge_net_indices)

    def test_vertex_areas_match_instances(self, toy_design):
        hg = Hypergraph.from_netlist(toy_design.arrays())
        for inst in toy_design.instances:
            assert hg.vertex_areas[inst.index] == pytest.approx(inst.area)

    def test_port_only_pins_dropped(self, toy_design):
        # n_in0 connects port + u1: one vertex -> dropped.
        hg = Hypergraph.from_netlist(toy_design.arrays())
        net_idx = toy_design.net("n_in0").index
        assert net_idx not in set(hg.edge_net_indices)

    def test_max_degree_filter(self, small_design):
        hg_all = Hypergraph.from_netlist(small_design.arrays())
        hg_cap = Hypergraph.from_netlist(small_design.arrays(), max_edge_degree=3)
        assert hg_cap.num_edges < hg_all.num_edges
        assert all(len(e) <= 3 for e in hg_cap.edges)


class TestCliqueExpansion:
    def test_two_pin_edge_weight(self):
        hg = Hypergraph(2, [(0, 1)], edge_weights=[5.0])
        rows, cols, weights = hg.clique_expansion()
        assert list(rows) == [0]
        assert list(cols) == [1]
        assert weights[0] == pytest.approx(5.0)

    def test_three_pin_weight_split(self):
        hg = Hypergraph(3, [(0, 1, 2)], edge_weights=[2.0])
        _rows, _cols, weights = hg.clique_expansion()
        # weight w/(k-1) = 1.0 on each of the 3 pairs
        assert len(weights) == 3
        assert all(w == pytest.approx(1.0) for w in weights)

    def test_parallel_edges_merged(self):
        hg = Hypergraph(2, [(0, 1), (0, 1)], edge_weights=[1.0, 2.0])
        rows, _cols, weights = hg.clique_expansion()
        assert len(rows) == 1
        assert weights[0] == pytest.approx(3.0)

    @given(random_hypergraphs())
    @settings(max_examples=30, deadline=None)
    def test_total_weight_preserved(self, hg):
        """Clique expansion preserves total weight: each edge of size k
        becomes k(k-1)/2 pairs of weight w/(k-1), summing to w*k/2...
        so total pair weight = sum w_e * |e| / 2."""
        _r, _c, weights = hg.clique_expansion()
        expected = sum(
            w * len(e) / 2.0 for w, e in zip(hg.edge_weights, hg.edges)
        )
        assert weights.sum() == pytest.approx(expected)


class TestContract:
    def test_simple_contract(self):
        hg = simple_hypergraph()
        coarse, members = hg.contract([0, 0, 1, 1, 1])
        assert coarse.num_vertices == 2
        assert members == [[0, 1], [2, 3, 4]]
        # Edge {0,1} internal; {1,2,3} spans; {3,4} internal.
        assert coarse.num_edges == 1
        assert coarse.edge_weights[0] == pytest.approx(2.0)

    def test_area_conservation(self):
        hg = simple_hypergraph()
        coarse, _ = hg.contract([0, 1, 0, 1, 0])
        assert coarse.vertex_areas.sum() == pytest.approx(hg.vertex_areas.sum())

    def test_parallel_coarse_edges_merge(self):
        hg = Hypergraph(4, [(0, 2), (1, 3)], edge_weights=[1.0, 4.0])
        coarse, _ = hg.contract([0, 0, 1, 1])
        assert coarse.num_edges == 1
        assert coarse.edge_weights[0] == pytest.approx(5.0)

    @given(random_hypergraphs(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_contract_invariants(self, hg, k):
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, k, hg.num_vertices)
        # Ensure ids are dense.
        _, assignment = np.unique(assignment, return_inverse=True)
        coarse, members = hg.contract(assignment)
        assert coarse.num_vertices == assignment.max() + 1
        assert sum(len(m) for m in members) == hg.num_vertices
        assert coarse.vertex_areas.sum() == pytest.approx(hg.vertex_areas.sum())
        # Cut size is preserved exactly by contraction.
        assert coarse.edge_weights.sum() == pytest.approx(hg.cut_size(assignment))


class TestCut:
    def test_cut_size(self):
        hg = simple_hypergraph()
        assert hg.cut_size([0, 0, 1, 1, 1]) == pytest.approx(2.0)
        assert hg.cut_size([0, 0, 0, 0, 0]) == pytest.approx(0.0)

    def test_external_edges_mask(self):
        hg = simple_hypergraph()
        mask = hg.external_edges([0, 0, 1, 1, 1])
        assert list(mask) == [False, True, False]

    def test_all_singletons_cut_everything(self):
        hg = simple_hypergraph()
        assert hg.cut_size([0, 1, 2, 3, 4]) == pytest.approx(
            hg.edge_weights.sum()
        )
