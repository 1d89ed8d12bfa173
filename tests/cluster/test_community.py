"""Louvain / Leiden community detection tests."""

import numpy as np
import pytest

from repro.cluster.graph import AdjacencyGraph
from repro.cluster.leiden import leiden_communities
from repro.cluster.louvain import louvain_communities
from repro.cluster.modularity import modularity
from repro.netlist.hypergraph import Hypergraph


def planted_partition(num_blocks=4, block_size=10, seed=0):
    """Blocks with dense internal and sparse external connectivity."""
    rng = np.random.default_rng(seed)
    rows, cols, weights = [], [], []
    n = num_blocks * block_size
    for i in range(n):
        for j in range(i + 1, n):
            same = i // block_size == j // block_size
            p = 0.6 if same else 0.02
            if rng.random() < p:
                rows.append(i)
                cols.append(j)
                weights.append(1.0)
    return (
        AdjacencyGraph(n, np.array(rows), np.array(cols), np.array(weights)),
        np.array([i // block_size for i in range(n)]),
    )


def agreement(found, truth):
    """Fraction of same-block pairs that land in the same community."""
    n = len(truth)
    hits = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if truth[i] == truth[j]:
                total += 1
                if found[i] == found[j]:
                    hits += 1
    return hits / total


@pytest.mark.parametrize("algo", [louvain_communities, leiden_communities])
class TestCommunityDetection:
    def test_recovers_planted_partition(self, algo):
        graph, truth = planted_partition()
        found = algo(graph, seed=1)
        assert agreement(found, truth) > 0.9

    def test_positive_modularity(self, algo):
        graph, _truth = planted_partition()
        found = algo(graph, seed=1)
        assert modularity(graph, found) > 0.3

    def test_deterministic_per_seed(self, algo):
        graph, _ = planted_partition()
        a = algo(graph, seed=5)
        b = algo(graph, seed=5)
        assert np.array_equal(a, b)

    def test_dense_ids(self, algo):
        graph, _ = planted_partition()
        found = algo(graph, seed=2)
        assert set(found) == set(range(found.max() + 1))

    def test_disconnected_components_separated(self, algo):
        rows = np.array([0, 1, 3, 4])
        cols = np.array([1, 2, 4, 5])
        weights = np.ones(4)
        graph = AdjacencyGraph(6, rows, cols, weights)
        found = algo(graph, seed=0)
        assert found[0] == found[1] == found[2]
        assert found[3] == found[4] == found[5]
        assert found[0] != found[3]


class TestLeidenSpecifics:
    def test_leiden_communities_connected(self):
        """Leiden guarantees internally connected communities."""
        graph, _ = planted_partition(seed=3)
        found = leiden_communities(graph, seed=3)
        for c in range(found.max() + 1):
            members = np.nonzero(found == c)[0]
            if len(members) <= 1:
                continue
            member_set = set(members.tolist())
            # BFS within the community.
            seen = {int(members[0])}
            stack = [int(members[0])]
            while stack:
                v = stack.pop()
                for u, _w in graph.neighbors(v):
                    if u in member_set and u not in seen:
                        seen.add(u)
                        stack.append(u)
            assert seen == member_set

    def test_on_real_netlist(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        graph = AdjacencyGraph.from_hypergraph(hg)
        lou = louvain_communities(graph, seed=0)
        lei = leiden_communities(graph, seed=0)
        assert modularity(graph, lou) > 0.3
        assert modularity(graph, lei) > 0.3
