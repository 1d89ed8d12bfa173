"""Rent exponent (Eq. 1) and hierarchy clustering (Algorithm 2) tests."""

import math

import numpy as np
import pytest

from repro.core.hier_clustering import (
    Dendrogram,
    hierarchy_based_clustering,
)
from repro.core.rent import cluster_rent_exponent, weighted_average_rent
from repro.designs.nangate45 import make_library
from repro.netlist.design import Design
from repro.netlist.hierarchy import HierarchyTree
from repro.netlist.hypergraph import Hypergraph


class TestRentExponent:
    def test_formula_by_hand(self):
        # E=2, Ext=3, Int=5, |c|=4 -> ln(2/8)/ln(4) + 1
        expected = math.log(2 / 8) / math.log(4) + 1
        assert cluster_rent_exponent(2, 3, 5, 4) == pytest.approx(expected)

    def test_singleton_neutral(self):
        assert cluster_rent_exponent(5, 5, 0, 1) == 1.0

    def test_no_pins_neutral(self):
        assert cluster_rent_exponent(0, 0, 0, 10) == 1.0

    def test_fully_contained_cluster_low(self):
        """A cluster with no external edges gets a very low exponent."""
        contained = cluster_rent_exponent(0, 0, 20, 10)
        leaky = cluster_rent_exponent(10, 15, 5, 10)
        assert contained < leaky

    def test_weighted_average(self):
        # Two clusters of {0,1} and {2,3}: edge (1,2) external,
        # edges (0,1) and (2,3) internal.
        hg = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        r = weighted_average_rent(hg, [0, 0, 1, 1])
        # Each cluster: E=1, Ext=1, Int=2, |c|=2.
        expected = math.log(1 / 3) / math.log(2) + 1
        assert r == pytest.approx(expected)

    def test_better_clustering_scores_lower(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        tree = HierarchyTree(small_design)
        hier = np.zeros(hg.num_vertices, dtype=np.int64)
        modules = {}
        for inst in small_design.instances:
            key = tuple(inst.hierarchy_path)
            modules.setdefault(key, len(modules))
            hier[inst.index] = modules[key]
        rng = np.random.default_rng(0)
        random_assignment = rng.integers(0, len(modules), hg.num_vertices)
        assert weighted_average_rent(hg, hier) < weighted_average_rent(
            hg, random_assignment
        )

    def test_empty(self):
        hg = Hypergraph(0, [])
        assert weighted_average_rent(hg, []) == 0.0


def build_unbalanced_design():
    """Hierarchy of uneven depth: x1 at depth 1, others at depth 2
    (mirrors Figure 2's leaf replication example)."""
    lib = make_library()
    design = Design("unbalanced")
    design.add_instance("x1", lib["INV_X1"])  # shallow leaf
    for name in ["a/u1", "a/u2", "b/c/u3", "b/c/u4", "b/u5"]:
        design.add_instance(name, lib["INV_X1"])
    # Connectivity: make module-internal nets.
    def net(name, drv, snk):
        n = design.add_net(name)
        design.connect_instance_pin(n, design.instance(drv), "Y")
        design.connect_instance_pin(n, design.instance(snk), "A")

    net("n1", "a/u1", "a/u2")
    net("n2", "b/c/u3", "b/c/u4")
    net("n3", "x1", "b/u5")
    return design


class TestDendrogram:
    def test_level_max(self):
        design = build_unbalanced_design()
        tree = HierarchyTree(design)
        dendrogram = Dendrogram.from_hierarchy(tree)
        # Deepest instance is b/c/u3: module depth 2 + 1 = 3.
        assert dendrogram.level_max == 3

    def test_level1_clusters_by_top_module(self):
        design = build_unbalanced_design()
        dendrogram = Dendrogram.from_hierarchy(HierarchyTree(design))
        level1 = dendrogram.clustering_at_level(1)
        by_name = {
            inst.name: level1[inst.index] for inst in design.instances
        }
        assert by_name["a/u1"] == by_name["a/u2"]
        assert by_name["b/c/u3"] == by_name["b/u5"]
        assert by_name["a/u1"] != by_name["b/c/u3"]
        assert by_name["x1"] not in (by_name["a/u1"], by_name["b/c/u3"])

    def test_level2_splits_submodules(self):
        design = build_unbalanced_design()
        dendrogram = Dendrogram.from_hierarchy(HierarchyTree(design))
        level2 = dendrogram.clustering_at_level(2)
        by_name = {
            inst.name: level2[inst.index] for inst in design.instances
        }
        # b/c separates from b at level 2.
        assert by_name["b/c/u3"] != by_name["b/u5"]
        # Shallow leaf x1 is replicated: stays its own cluster.
        assert list(level2).count(by_name["x1"]) == 1

    def test_deepest_level_singletons(self):
        design = build_unbalanced_design()
        dendrogram = Dendrogram.from_hierarchy(HierarchyTree(design))
        deepest = dendrogram.clustering_at_level(dendrogram.level_max)
        assert len(set(deepest.tolist())) == design.num_instances

    def test_invalid_level(self):
        design = build_unbalanced_design()
        dendrogram = Dendrogram.from_hierarchy(HierarchyTree(design))
        with pytest.raises(ValueError):
            dendrogram.clustering_at_level(0)
        with pytest.raises(ValueError):
            dendrogram.clustering_at_level(99)


class TestAlgorithm2:
    def test_evaluates_levelmax_minus_one_levels(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        tree = HierarchyTree(small_design)
        result = hierarchy_based_clustering(hg, tree)
        dendrogram = Dendrogram.from_hierarchy(tree)
        assert len(result.rent_by_level) == dendrogram.level_max - 1

    def test_picks_min_rent_level(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        result = hierarchy_based_clustering(hg, HierarchyTree(small_design))
        best = min(result.rent_by_level.values())
        assert result.rent_by_level[result.best_level] == pytest.approx(best)

    def test_assignment_matches_level(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        tree = HierarchyTree(small_design)
        result = hierarchy_based_clustering(hg, tree)
        dendrogram = Dendrogram.from_hierarchy(tree)
        expected = dendrogram.clustering_at_level(result.best_level)
        assert np.array_equal(result.cluster_of, expected)

    def test_max_levels_cap(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        result = hierarchy_based_clustering(
            hg, HierarchyTree(small_design), max_levels=1
        )
        assert len(result.rent_by_level) == 1

    def test_num_clusters(self, small_design):
        hg = Hypergraph.from_netlist(small_design.arrays())
        result = hierarchy_based_clustering(hg, HierarchyTree(small_design))
        assert result.num_clusters == result.cluster_of.max() + 1
        assert result.num_clusters > 1
