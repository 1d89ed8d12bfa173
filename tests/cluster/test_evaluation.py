"""Clustering quality metric tests."""

import numpy as np
import pytest

from repro.cluster.evaluation import evaluate_clustering
from repro.netlist.hypergraph import Hypergraph


def simple_hypergraph():
    """Two dense pairs bridged once: {0,1},{1,0},{2,3} + bridge {1,2}."""
    return Hypergraph(
        4,
        [(0, 1), (0, 1), (2, 3), (1, 2)],
        edge_weights=[1.0, 1.0, 2.0, 1.0],
    )


class TestEvaluateClustering:
    def test_perfect_clustering(self):
        hg = simple_hypergraph()
        quality = evaluate_clustering(hg, [0, 0, 1, 1])
        assert quality.cut_fraction == pytest.approx(1.0 / 5.0)
        assert quality.coverage == pytest.approx(4.0 / 5.0)
        assert quality.num_clusters == 2
        assert quality.singleton_fraction == 0.0

    def test_all_singletons(self):
        hg = simple_hypergraph()
        quality = evaluate_clustering(hg, [0, 1, 2, 3])
        assert quality.cut_fraction == pytest.approx(1.0)
        assert quality.coverage == pytest.approx(0.0)
        assert quality.singleton_fraction == 1.0

    def test_single_cluster(self):
        hg = simple_hypergraph()
        quality = evaluate_clustering(hg, [0, 0, 0, 0])
        assert quality.cut_fraction == 0.0
        assert quality.max_cluster_fraction == 1.0
        assert quality.mean_conductance == 0.0

    def test_conductance_hand_computed(self):
        hg = simple_hypergraph()
        quality = evaluate_clustering(hg, [0, 0, 1, 1])
        # Cluster 0: volume = 1+1+1 = 3, boundary = 1; cluster 1:
        # volume = 2+1 = 3, boundary = 1; total volume 6.
        # conductance = 1 / min(3, 3) = 1/3 each.
        assert quality.mean_conductance == pytest.approx(1.0 / 3.0)

    def test_size_statistics(self):
        hg = Hypergraph(6, [(0, 1)])
        quality = evaluate_clustering(hg, [0, 0, 0, 0, 1, 2])
        assert quality.max_cluster_fraction == pytest.approx(4 / 6)
        assert quality.size_cv > 0
        assert quality.singleton_fraction == pytest.approx(2 / 3)

    def test_as_dict(self):
        hg = simple_hypergraph()
        d = evaluate_clustering(hg, [0, 0, 1, 1]).as_dict()
        assert set(d) == {
            "clusters",
            "cut",
            "coverage",
            "conductance",
            "max_frac",
            "size_cv",
            "singletons",
        }

    def test_better_clustering_scores_better(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        from repro.cluster.fc import FirstChoiceConfig, first_choice_clustering

        good = first_choice_clustering(
            hg, FirstChoiceConfig(target_clusters=10, seed=0)
        )
        rng = np.random.default_rng(0)
        random_assignment = rng.integers(0, good.max() + 1, hg.num_vertices)
        q_good = evaluate_clustering(hg, good)
        q_rand = evaluate_clustering(hg, random_assignment)
        assert q_good.cut_fraction < q_rand.cut_fraction
        assert q_good.mean_conductance < q_rand.mean_conductance
