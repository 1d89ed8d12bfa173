"""CSR FC pass == dict-accumulation oracle, bit for bit.

The vectorized neighbour-rating kernel (:func:`repro.cluster.fc._rating_rows`)
must reproduce the oracle pass's (``tests/cluster/reference.py``)
ratings *and* its tie-breaking: the
candidate visit order equals the reference dict's first-occurrence
order, and duplicate contributions sum in hyperedge order.  Any drift
shows up here as a different cluster assignment for the same seed.
"""

import random

import numpy as np
import pytest

from repro.cluster.constraints import GroupingConstraints
from repro.cluster import fc as fc_module
from repro.cluster.fc import FirstChoiceConfig, _fc_pass, first_choice_clustering
from repro.designs import load_benchmark
from repro.netlist.hypergraph import Hypergraph
from tests.cluster.reference import fc_pass_reference


def random_hypergraph(seed, n=120, m=180, max_degree=6):
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(m):
        k = int(rng.integers(2, max_degree + 1))
        members = rng.choice(n, size=k, replace=False)
        edges.append(tuple(int(v) for v in members))
    weights = rng.uniform(0.1, 5.0, size=m)
    areas = rng.uniform(0.5, 3.0, size=n)
    return Hypergraph(n, edges, edge_weights=weights, vertex_areas=areas)


def _both_passes(hg, scores, groups, max_area, seed, **kwargs):
    # Fresh RNGs: each pass consumes the stream via shuffle().
    fast = _fc_pass(
        hg, scores, hg.vertex_areas, groups, max_area, random.Random(seed), **kwargs
    )
    ref = fc_pass_reference(
        hg, scores, hg.vertex_areas, groups, max_area, random.Random(seed), **kwargs
    )
    return fast, ref


class TestFcPassEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_hypergraphs(self, seed):
        hg = random_hypergraph(seed)
        scores = hg.edge_weights
        groups = GroupingConstraints.none(hg.num_vertices).group_of
        max_area = float(hg.vertex_areas.sum()) / 10
        fast, ref = _both_passes(hg, scores, groups, max_area, seed)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_with_edge_scores_and_groups(self, seed):
        hg = random_hypergraph(seed + 100)
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0.01, 10.0, size=hg.num_edges)
        groups = rng.integers(-1, 4, size=hg.num_vertices).astype(np.int64)
        max_area = float(hg.vertex_areas.sum()) / 6
        for hard in (False, True):
            fast, ref = _both_passes(
                hg,
                scores,
                groups,
                max_area,
                seed,
                group_bonus=1.5,
                hard_groups=hard,
            )
            assert np.array_equal(fast, ref)

    def test_tight_area_budget(self):
        """Many candidates rejected on area: the skip logic must agree."""
        hg = random_hypergraph(11)
        groups = GroupingConstraints.none(hg.num_vertices).group_of
        max_area = float(np.median(hg.vertex_areas)) * 1.5
        fast, ref = _both_passes(hg, hg.edge_weights, groups, max_area, 3)
        assert np.array_equal(fast, ref)

    def test_degenerate_edges(self):
        """Single-pin and duplicate-member edges must rate identically."""
        edges = [(0,), (0, 1), (1, 2, 3), (0, 1), (2, 3), (3, 4, 0, 1)]
        hg = Hypergraph(5, edges, edge_weights=[1.0, 2.0, 0.5, 2.0, 1.0, 0.25])
        groups = GroupingConstraints.none(5).group_of
        fast, ref = _both_passes(hg, hg.edge_weights, groups, 100.0, 0)
        assert np.array_equal(fast, ref)

    def test_real_benchmark_full_clustering(self, monkeypatch):
        """End-to-end multilevel FC on a real netlist is deterministic
        and equals a run with the oracle pass swapped in."""
        design = load_benchmark("aes", use_cache=False)
        hg = Hypergraph.from_netlist(design.arrays())
        config = FirstChoiceConfig(target_clusters=50, seed=0)
        first = first_choice_clustering(hg, config)
        second = first_choice_clustering(hg, config)
        assert np.array_equal(first, second)

        monkeypatch.setattr(fc_module, "_fc_pass", fc_pass_reference)
        reference = first_choice_clustering(hg, config)
        assert np.array_equal(first, reference)
