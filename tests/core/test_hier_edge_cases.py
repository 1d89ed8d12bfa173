"""Hierarchy-clustering edge cases."""

import numpy as np
import pytest

from repro.core.hier_clustering import Dendrogram, hierarchy_based_clustering
from repro.designs.nangate45 import make_library
from repro.netlist.design import Design
from repro.netlist.hierarchy import HierarchyTree
from repro.netlist.hypergraph import Hypergraph


def single_module_design():
    """All instances inside one module: level 1 is a single cluster."""
    lib = make_library()
    design = Design("one")
    prev = None
    for i in range(10):
        inst = design.add_instance(f"m/U{i}", lib["INV_X1"])
        if prev is not None:
            net = design.add_net(f"n{i}")
            design.connect_instance_pin(net, prev, "Y")
            design.connect_instance_pin(net, inst, "A")
        prev = inst
    return design


class TestSingleModule:
    def test_level1_single_cluster_neutral_rent(self):
        design = single_module_design()
        hgraph = Hypergraph.from_netlist(design.arrays())
        tree = HierarchyTree(design)
        result = hierarchy_based_clustering(hgraph, tree)
        # level 1 groups everything: recorded with the neutral value.
        assert result.rent_by_level[1] == pytest.approx(1.0)

    def test_result_is_usable(self):
        design = single_module_design()
        hgraph = Hypergraph.from_netlist(design.arrays())
        result = hierarchy_based_clustering(hgraph, HierarchyTree(design))
        assert len(result.cluster_of) == design.num_instances


class TestMixedDepthReplication:
    def test_replicated_leaf_chain_padding(self):
        """An instance at depth 1 keeps its module identity through all
        intermediate levels and becomes a singleton at level_max."""
        lib = make_library()
        design = Design("mix")
        design.add_instance("a/U0", lib["INV_X1"])          # depth 2 leaf
        design.add_instance("b/c/d/U1", lib["INV_X1"])      # depth 4 leaf
        dendrogram = Dendrogram.from_hierarchy(HierarchyTree(design))
        assert dendrogram.level_max == 4
        chain = dendrogram.instance_chain[0]
        assert chain[0] == ("a",)
        assert chain[1] == ("a",)      # replicated
        assert chain[2] == ("a",)      # replicated
        assert chain[3][-1].startswith("<leaf:")  # unique at level_max

    def test_deep_instance_chain(self):
        lib = make_library()
        design = Design("mix2")
        design.add_instance("b/c/d/U1", lib["INV_X1"])
        dendrogram = Dendrogram.from_hierarchy(HierarchyTree(design))
        chain = dendrogram.instance_chain[0]
        assert chain[0] == ("b",)
        assert chain[1] == ("b", "c")
        assert chain[2] == ("b", "c", "d")
