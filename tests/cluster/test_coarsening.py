"""FC / Best-Choice / edge-coarsening tests, including grouping
constraints and score steering."""

import numpy as np
import pytest

from repro.cluster.best_choice import best_choice_clustering
from repro.cluster.constraints import UNGROUPED, GroupingConstraints
from repro.cluster.edge_coarsening import edge_coarsening
from repro.cluster.fc import FirstChoiceConfig, first_choice_clustering
from repro.netlist.hypergraph import Hypergraph


def chain_hypergraph(n=20):
    """A path graph as a hypergraph (each edge 2-pin)."""
    return Hypergraph(n, [(i, i + 1) for i in range(n - 1)])


def weighted_pairs():
    """6 vertices: strong pairs (0,1), (2,3), (4,5); weak cross edges."""
    edges = [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)]
    weights = [10.0, 10.0, 10.0, 0.1, 0.1]
    return Hypergraph(6, edges, edge_weights=weights)


class TestFirstChoice:
    def test_reduces_vertex_count(self):
        hg = chain_hypergraph(40)
        clusters = first_choice_clustering(
            hg, FirstChoiceConfig(target_clusters=8, seed=0)
        )
        assert clusters.max() + 1 <= 20
        assert len(clusters) == 40

    def test_strong_pairs_merge_first(self):
        hg = weighted_pairs()
        clusters = first_choice_clustering(
            hg, FirstChoiceConfig(target_clusters=3, seed=0)
        )
        assert clusters[0] == clusters[1]
        assert clusters[2] == clusters[3]
        assert clusters[4] == clusters[5]

    def test_edge_scores_override_weights(self):
        """With scores inverted, the weak edges become attractive."""
        hg = weighted_pairs()
        scores = np.array([0.1, 0.1, 0.1, 10.0, 10.0])
        clusters = first_choice_clustering(
            hg,
            FirstChoiceConfig(target_clusters=4, max_cluster_area_factor=8, seed=0),
            edge_scores=scores,
        )
        assert clusters[1] == clusters[2]
        assert clusters[3] == clusters[4]

    def test_hard_groups_respected(self):
        hg = weighted_pairs()
        groups = GroupingConstraints(np.array([0, 1, 1, 2, 2, 3]))
        clusters = first_choice_clustering(
            hg,
            FirstChoiceConfig(target_clusters=2, hard_groups=True, seed=0),
            constraints=groups,
        )
        # 0 and 1 are in different groups: can never merge.
        assert clusters[0] != clusters[1]
        # 1,2 share a group; 3,4 share a group.
        assert clusters[1] == clusters[2]
        assert clusters[3] == clusters[4]

    def test_soft_groups_allow_strong_cross_merges(self):
        hg = weighted_pairs()
        groups = GroupingConstraints(np.array([0, 1, 1, 2, 2, 3]))
        clusters = first_choice_clustering(
            hg,
            FirstChoiceConfig(target_clusters=3, group_bonus=0.5, seed=0),
            constraints=groups,
        )
        # The strong (0,1) edge wins over the weak same-group (1,2).
        assert clusters[0] == clusters[1]

    def test_area_balance_respected(self):
        hg = Hypergraph(
            4,
            [(0, 1), (1, 2), (2, 3)],
            vertex_areas=[100.0, 100.0, 100.0, 100.0],
        )
        clusters = first_choice_clustering(
            hg,
            FirstChoiceConfig(
                target_clusters=2, max_cluster_area_factor=1.0, seed=0
            ),
        )
        sizes = np.bincount(clusters)
        # max area = 1.0 * 400 / 2 = 200 -> at most 2 vertices/cluster.
        assert sizes.max() <= 2

    def test_score_length_mismatch(self):
        hg = chain_hypergraph(5)
        with pytest.raises(ValueError):
            first_choice_clustering(hg, edge_scores=[1.0])

    def test_empty_hypergraph(self):
        hg = Hypergraph(0, [])
        assert len(first_choice_clustering(hg)) == 0

    def test_deterministic(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        a = first_choice_clustering(hg, FirstChoiceConfig(target_clusters=10, seed=4))
        b = first_choice_clustering(hg, FirstChoiceConfig(target_clusters=10, seed=4))
        assert np.array_equal(a, b)

    def test_isolated_vertices_stay_singletons(self):
        hg = Hypergraph(5, [(0, 1)])
        clusters = first_choice_clustering(
            hg, FirstChoiceConfig(target_clusters=1, seed=0)
        )
        # Vertices 2, 3, 4 have no edges: they remain singletons
        # (footnote 2: singletons are never force-merged).
        assert len({clusters[2], clusters[3], clusters[4]}) == 3


class TestBestChoice:
    def test_reaches_target(self):
        hg = chain_hypergraph(30)
        clusters = best_choice_clustering(hg, target_clusters=10)
        assert clusters.max() + 1 == 10

    def test_strong_pairs_merge(self):
        hg = weighted_pairs()
        clusters = best_choice_clustering(hg, target_clusters=3)
        assert clusters[0] == clusters[1]
        assert clusters[2] == clusters[3]
        assert clusters[4] == clusters[5]

    def test_cut_quality_on_netlist(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        bc = best_choice_clustering(hg, target_clusters=20)
        rng = np.random.default_rng(0)
        random_assignment = rng.integers(0, 20, hg.num_vertices)
        assert hg.cut_size(bc) < hg.cut_size(random_assignment)


class TestEdgeCoarsening:
    def test_single_pass_halves_at_best(self):
        hg = chain_hypergraph(16)
        clusters = edge_coarsening(hg, target_clusters=1, max_passes=1)
        assert clusters.max() + 1 >= 8

    def test_multi_pass_reaches_target(self):
        hg = chain_hypergraph(64)
        clusters = edge_coarsening(hg, target_clusters=8)
        assert clusters.max() + 1 <= 16

    def test_worse_than_bc_on_weighted_graph(self, small_design):
        """The classic result: BC cut <= EC cut (on average)."""
        hg = Hypergraph.from_netlist(small_design.arrays())
        bc = best_choice_clustering(hg, target_clusters=15, seed=0)
        ec = edge_coarsening(hg, target_clusters=15, seed=0)
        assert hg.cut_size(bc) <= hg.cut_size(ec) * 1.1


class TestGroupingConstraints:
    def test_compatibility(self):
        g = GroupingConstraints([0, 0, 1, UNGROUPED])
        assert g.compatible(0, 0)
        assert not g.compatible(0, 1)
        assert g.compatible(0, UNGROUPED)
        assert g.compatible(UNGROUPED, UNGROUPED)

    def test_merged_group(self):
        g = GroupingConstraints([0])
        assert g.merged_group(UNGROUPED, 3) == 3
        assert g.merged_group(2, UNGROUPED) == 2

    def test_factories(self):
        none = GroupingConstraints.none(5)
        assert none.num_groups() == 0
        from_clusters = GroupingConstraints.from_clusters([0, 0, 1, 2])
        assert from_clusters.num_groups() == 3
