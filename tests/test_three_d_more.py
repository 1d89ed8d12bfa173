"""Additional 3D-extension coverage: crossing weights and flow wiring."""

import numpy as np
import pytest

from benchmarks.ext.three_d import _cluster_crossing_weights
from repro.designs.nangate45 import make_library
from repro.netlist.design import Design


def three_cluster_design():
    lib = make_library()
    design = Design("x")
    insts = [design.add_instance(f"U{i}", lib["INV_X1"]) for i in range(6)]
    # Net across clusters 0-1 (weight 2), net across 1-2 (weight 1),
    # net internal to cluster 0.
    n1 = design.add_net("n1")
    n1.weight = 2.0
    design.connect_instance_pin(n1, insts[0], "Y")
    design.connect_instance_pin(n1, insts[2], "A")
    n2 = design.add_net("n2")
    design.connect_instance_pin(n2, insts[2], "Y")
    design.connect_instance_pin(n2, insts[4], "A")
    n3 = design.add_net("n3")
    design.connect_instance_pin(n3, insts[1], "Y")
    design.connect_instance_pin(n3, insts[0], "A")
    cluster_of = np.array([0, 0, 1, 1, 2, 2])
    return design, cluster_of


class TestCrossingWeights:
    def test_weights_by_pair(self):
        design, cluster_of = three_cluster_design()
        weights = _cluster_crossing_weights(design, cluster_of)
        assert weights[(0, 1)] == pytest.approx(2.0)
        assert weights[(1, 2)] == pytest.approx(1.0)
        assert (0, 2) not in weights

    def test_internal_nets_ignored(self):
        design, cluster_of = three_cluster_design()
        weights = _cluster_crossing_weights(design, cluster_of)
        assert sum(weights.values()) == pytest.approx(3.0)

    def test_multi_cluster_net_split(self):
        lib = make_library()
        design = Design("m")
        a = design.add_instance("a", lib["INV_X1"])
        b = design.add_instance("b", lib["NAND2_X1"])
        c = design.add_instance("c", lib["NAND2_X1"])
        net = design.add_net("n")
        net.weight = 2.0
        design.connect_instance_pin(net, a, "Y")
        design.connect_instance_pin(net, b, "A")
        design.connect_instance_pin(net, c, "A")
        weights = _cluster_crossing_weights(design, np.array([0, 1, 2]))
        # Net spanning 3 clusters: weight / (k-1) = 1.0 per pair.
        assert weights[(0, 1)] == pytest.approx(1.0)
        assert weights[(0, 2)] == pytest.approx(1.0)
        assert weights[(1, 2)] == pytest.approx(1.0)
