"""Eq. 2/3 cost tests and PPA-aware clustering pipeline tests."""

import numpy as np
import pytest

from repro.core.costs import (
    CostConfig,
    compute_edge_scores,
    hyperedge_switching_costs,
    hyperedge_timing_costs,
)
from repro.core.ppa_clustering import (
    PPAClusteringConfig,
    ppa_aware_clustering,
)
from repro.db.database import DesignDatabase
from repro.netlist.hypergraph import Hypergraph
from repro.sta.paths import TimingPath


def hypergraph_with_nets():
    hg = Hypergraph(
        4,
        [(0, 1), (1, 2), (2, 3)],
        edge_net_indices=[10, 11, 12],
    )
    return hg


def per_net(activity):
    """Net index -> toggle rate as the per-net array the costs take."""
    out = np.zeros(13)
    for net, rate in activity.items():
        out[net] = rate
    return out


class TestSwitchingCost:
    def test_eq2_by_hand(self):
        hg = hypergraph_with_nets()
        activity = per_net({10: 0.5, 11: 0.25, 12: 0.25})
        costs = hyperedge_switching_costs(hg, activity, mu=2.0)
        # theta sum = 1.0; s_e = (1 + theta)^2
        assert costs[0] == pytest.approx(1.5**2)
        assert costs[1] == pytest.approx(1.25**2)

    def test_mu_scaling(self):
        hg = hypergraph_with_nets()
        activity = per_net({10: 1.0, 11: 0.0, 12: 0.0})
        mu1 = hyperedge_switching_costs(hg, activity, mu=1.0)
        mu3 = hyperedge_switching_costs(hg, activity, mu=3.0)
        assert mu3[0] > mu1[0]
        assert mu3[1] == pytest.approx(1.0)

    def test_no_activity_gives_ones(self):
        hg = hypergraph_with_nets()
        costs = hyperedge_switching_costs(hg, per_net({}), mu=2.0)
        assert np.allclose(costs, 1.0)

    def test_higher_activity_higher_cost(self):
        hg = hypergraph_with_nets()
        costs = hyperedge_switching_costs(hg, per_net({10: 0.9, 11: 0.1, 12: 0.1}))
        assert costs[0] > costs[1]


class TestTimingCost:
    def test_critical_path_weights_edges(self):
        hg = hypergraph_with_nets()
        paths = [TimingPath(nodes=[0, 1], slack=-0.1, net_indices=[10, 11])]
        costs = hyperedge_timing_costs(hg, paths, clock_period=1.0)
        assert costs[0] > 0
        assert costs[1] > 0
        assert costs[2] == 0.0

    def test_positive_slack_paths_ignored(self):
        hg = hypergraph_with_nets()
        paths = [TimingPath(nodes=[0], slack=0.9, net_indices=[10])]
        costs = hyperedge_timing_costs(hg, paths, clock_period=1.0)
        assert np.all(costs == 0)

    def test_worse_slack_higher_cost(self):
        hg = hypergraph_with_nets()
        paths = [
            TimingPath(nodes=[0], slack=-0.5, net_indices=[10]),
            TimingPath(nodes=[0], slack=-0.05, net_indices=[11]),
        ]
        costs = hyperedge_timing_costs(hg, paths, clock_period=1.0)
        assert costs[0] > costs[1] > 0

    def test_normalised_to_unit_mean(self):
        hg = hypergraph_with_nets()
        paths = [
            TimingPath(nodes=[0], slack=-0.5, net_indices=[10]),
            TimingPath(nodes=[0], slack=-0.1, net_indices=[11]),
        ]
        costs = hyperedge_timing_costs(hg, paths, clock_period=1.0)
        nonzero = costs[costs > 0]
        assert nonzero.mean() == pytest.approx(1.0)

    def test_zero_period_guard(self):
        hg = hypergraph_with_nets()
        costs = hyperedge_timing_costs(hg, [], clock_period=0.0)
        assert np.all(costs == 0)


class TestEdgeScores:
    def test_connectivity_only(self):
        hg = hypergraph_with_nets()
        scores = compute_edge_scores(hg, CostConfig(alpha=2.0))
        assert np.allclose(scores, 2.0 * hg.edge_weights)

    def test_eq3_composition(self):
        hg = hypergraph_with_nets()
        paths = [TimingPath(nodes=[0], slack=-0.2, net_indices=[10])]
        activity = per_net({10: 0.5, 11: 0.5, 12: 0.0})
        config = CostConfig(alpha=1.0, beta=2.0, gamma=3.0, mu=2.0)
        scores = compute_edge_scores(
            hg, config, paths=paths, net_activity=activity, clock_period=1.0
        )
        t = hyperedge_timing_costs(hg, paths, 1.0, config.slack_threshold_fraction)
        s = hyperedge_switching_costs(hg, activity, 2.0)
        expected = 1.0 * hg.edge_weights + 2.0 * t + 3.0 * s
        assert np.allclose(scores, expected)

    def test_graceful_degradation(self):
        hg = hypergraph_with_nets()
        scores = compute_edge_scores(hg, None, paths=None, net_activity=None)
        assert np.allclose(scores, hg.edge_weights)


class TestPpaClusteringPipeline:
    def test_full_pipeline(self, small_design):
        db = DesignDatabase(small_design)
        result = ppa_aware_clustering(db, PPAClusteringConfig(seed=0))
        assert len(result.cluster_of) == small_design.num_instances
        assert result.num_clusters > 1
        assert result.hierarchy is not None
        assert result.edge_scores is not None
        assert "clustering" in result.runtimes

    def test_members_partition(self, small_design):
        db = DesignDatabase(small_design)
        result = ppa_aware_clustering(db)
        members = result.members()
        total = sum(len(m) for m in members)
        assert total == small_design.num_instances
        flat = sorted(v for m in members for v in m)
        assert flat == list(range(small_design.num_instances))

    def test_singletons_counted(self, small_design):
        db = DesignDatabase(small_design)
        result = ppa_aware_clustering(db)
        sizes = np.bincount(result.cluster_of)
        assert result.singleton_count() == int((sizes == 1).sum())

    def test_ablation_toggles(self, small_design):
        db = DesignDatabase(small_design)
        no_hier = ppa_aware_clustering(
            db, PPAClusteringConfig(use_hierarchy=False)
        )
        assert no_hier.hierarchy is None
        no_extras = ppa_aware_clustering(
            db,
            PPAClusteringConfig(
                use_hierarchy=False, use_timing=False, use_switching=False
            ),
        )
        # Degenerates to plain FC: scores == edge weights.
        hg = db.hypergraph
        assert np.allclose(no_extras.edge_scores, hg.edge_weights)

    def test_target_cluster_size_effect(self, small_design):
        db = DesignDatabase(small_design)
        fine = ppa_aware_clustering(
            db, PPAClusteringConfig(target_cluster_size=10, use_hierarchy=False)
        )
        coarse = ppa_aware_clustering(
            db, PPAClusteringConfig(target_cluster_size=80, use_hierarchy=False)
        )
        assert fine.num_clusters > coarse.num_clusters

    def test_deterministic(self, small_design):
        db = DesignDatabase(small_design)
        a = ppa_aware_clustering(db, PPAClusteringConfig(seed=3))
        b = ppa_aware_clustering(db, PPAClusteringConfig(seed=3))
        assert np.array_equal(a.cluster_of, b.cluster_of)
