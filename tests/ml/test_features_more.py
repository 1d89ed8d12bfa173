"""Feature-extraction detail tests: pivot approximations, graph stats.

The scalar helpers are the oracle (``tests/ml/reference.py``); the
pivot approximations are checked on the oracle and on the CSR kernels
(``repro.ml.features._ClusterGraph``) side by side.
"""

import numpy as np
import pytest

from repro.ml.features import FeatureExtractor, _ClusterGraph
from tests.ml.reference import (
    ReferenceExtractor,
    adjacency_lists as _adjacency_lists,
    bfs as _bfs,
    bfs_brandes as _bfs_brandes,
    clustering_coefficients as _clustering_coefficients,
    greedy_coloring as _greedy_coloring,
)


def path_edges(n):
    return np.arange(n - 1), np.arange(1, n)


def path_graph(n):
    return _adjacency_lists(n, *path_edges(n))


def cluster_graph(n, rows, cols, num_pivots, seed):
    pivots = FeatureExtractor(num_pivots=num_pivots, seed=seed)._pivots(n)
    return _ClusterGraph(n, rows, cols, pivots)


#: 0-1-2 triangle with a tail 2-3.
TRIANGLE_TAIL = (np.array([0, 1, 0, 2]), np.array([1, 2, 2, 3]))


def triangle_plus_tail():
    return _adjacency_lists(4, *TRIANGLE_TAIL)


class TestBfsHelpers:
    def test_bfs_distances(self):
        adjacency = path_graph(5)
        dist = _bfs(adjacency, 0)
        assert list(dist) == [0, 1, 2, 3, 4]

    def test_bfs_unreachable(self):
        adjacency = _adjacency_lists(3, np.array([0]), np.array([1]))
        dist = _bfs(adjacency, 0)
        assert dist[2] == -1

    def test_brandes_sigma_counts_shortest_paths(self):
        # Square 0-1, 0-2, 1-3, 2-3: two shortest paths 0->3.
        adjacency = _adjacency_lists(
            4, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3])
        )
        dist, order, sigma, parents = _bfs_brandes(adjacency, 0)
        assert sigma[3] == pytest.approx(2.0)
        assert dist[3] == 2
        assert set(parents[3]) == {1, 2}


class TestGraphStats:
    def test_clustering_coefficients(self):
        adjacency = triangle_plus_tail()
        coeffs = _clustering_coefficients(adjacency)
        assert coeffs[0] == pytest.approx(1.0)   # in a triangle
        assert coeffs[3] == 0.0                  # degree-1 tail
        # Node 2 has neighbours {0, 1, 3}: one closed pair of three.
        assert coeffs[2] == pytest.approx(1.0 / 3.0)
        graph = cluster_graph(4, *TRIANGLE_TAIL, num_pivots=4, seed=0)
        assert np.array_equal(graph.clustering, coeffs)

    def test_greedy_coloring_triangle(self):
        adjacency = triangle_plus_tail()
        degrees = np.array([len(a) for a in adjacency], dtype=float)
        colors = _greedy_coloring(adjacency, degrees)
        assert colors == 3.0  # a triangle needs 3 colors
        graph = cluster_graph(4, *TRIANGLE_TAIL, num_pivots=4, seed=0)
        assert graph.greedy_colors() == 3.0

    def test_greedy_coloring_path(self):
        adjacency = path_graph(6)
        degrees = np.array([len(a) for a in adjacency], dtype=float)
        assert _greedy_coloring(adjacency, degrees) == 2.0
        assert cluster_graph(6, *path_edges(6), 6, 0).greedy_colors() == 2.0


class TestPivotApproximations:
    def test_full_pivots_give_exact_eccentricity(self):
        """With pivots >= n the eccentricity estimate is exact."""
        extractor = ReferenceExtractor(num_pivots=100, seed=0)
        adjacency = path_graph(7)
        ecc, efficiency = extractor._pivot_bfs_stats(adjacency)
        assert ecc.max() == 6  # path diameter
        assert efficiency > 0
        graph = cluster_graph(7, *path_edges(7), num_pivots=100, seed=0)
        assert np.array_equal(graph.eccentricity, ecc)

    def test_betweenness_peak_in_path_center(self):
        extractor = ReferenceExtractor(num_pivots=100, seed=0)
        adjacency = path_graph(7)
        betweenness, closeness, ecc = extractor._pivot_centralities(adjacency)
        assert np.argmax(betweenness) == 3  # middle node
        assert np.argmax(closeness) == 3
        graph = cluster_graph(7, *path_edges(7), num_pivots=100, seed=0)
        assert np.array_equal(graph.betweenness(), betweenness)

    def test_subsampled_pivots_bounded(self):
        extractor = ReferenceExtractor(num_pivots=2, seed=1)
        adjacency = path_graph(20)
        ecc, _eff = extractor._pivot_bfs_stats(adjacency)
        # Lower bounds never exceed the true diameter.
        assert ecc.max() <= 19
        graph = cluster_graph(20, *path_edges(20), num_pivots=2, seed=1)
        assert np.array_equal(graph.eccentricity, ecc)
