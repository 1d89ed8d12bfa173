"""Edge-path tests: flat hierarchies, degenerate inputs, variant lookup."""

import numpy as np
import pytest

from repro.cluster.graph import AdjacencyGraph
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.db.database import DesignDatabase
from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, PinDirection
from benchmarks.ext.opt.sizing import _variant


def flat_design(n=60):
    """A flat (no hierarchy) chain design."""
    lib = make_library()
    design = Design("flat")
    design.clock_period = 1.0
    prev = None
    for i in range(n):
        inst = design.add_instance(f"U{i}", lib["INV_X1"])
        inst.x = float(i)
        inst.y = 1.0
        if prev is not None:
            net = design.add_net(f"n{i}")
            design.connect_instance_pin(net, prev, "Y")
            design.connect_instance_pin(net, inst, "A")
        prev = inst
    design.add_port("in0", PinDirection.INPUT)
    first_net = design.add_net("n_in")
    design.connect_port(first_net, "in0")
    design.connect_instance_pin(first_net, design.instance("U0"), "A")
    return design


class TestFlatHierarchyPath:
    def test_ppa_clustering_without_hierarchy(self):
        design = flat_design()
        db = DesignDatabase(design)
        result = ppa_aware_clustering(
            db, PPAClusteringConfig(target_cluster_size=10)
        )
        assert result.hierarchy is None
        assert result.num_clusters >= 1
        assert "hier_clustering" not in result.runtimes

    def test_flow_on_flat_design(self):
        from repro.core import ClusteredPlacementFlow, FlowConfig

        design = flat_design()
        result = ClusteredPlacementFlow(
            FlowConfig(run_routing=False)
        ).run(design)
        assert result.metrics.hpwl > 0


class TestSizingVariantLookup:
    def test_doubles_drive(self):
        lib = make_library()
        design = Design("v")
        for master in lib.values():
            design.masters.setdefault(master.name, master)
        stronger = _variant(design, lib["INV_X1"], 2)
        assert stronger is lib["INV_X2"]
        strongest = _variant(design, lib["INV_X2"], 2)
        assert strongest is lib["INV_X4"]

    def test_missing_variant(self):
        lib = make_library()
        design = Design("v")
        design.masters.setdefault("INV_X4", lib["INV_X4"])
        assert _variant(design, lib["INV_X4"], 2) is None

    def test_unparseable_name(self):
        lib = make_library()
        design = Design("v")
        assert _variant(design, lib["RAM256X32"], 2) is None


class TestAdjacencyDegenerate:
    def test_no_edges(self):
        graph = AdjacencyGraph(4, np.zeros(0), np.zeros(0), np.zeros(0))
        assert graph.num_edges == 0
        assert graph.total_weight == 0.0
        from repro.cluster import louvain_communities

        found = louvain_communities(graph, seed=0)
        assert len(set(found.tolist())) == 4  # nothing merges

    def test_contract_to_one(self):
        graph = AdjacencyGraph(
            3, np.array([0, 1]), np.array([1, 2]), np.ones(2)
        )
        coarse = graph.contract(np.zeros(3, dtype=np.int64))
        assert coarse.num_vertices == 1
        assert coarse.self_loops[0] == pytest.approx(2.0)


class TestBatchnormEvalWithoutRunning:
    def test_eval_mode_uses_batch_stats_when_no_running(self):
        from repro.ml.autograd import Tensor, batchnorm

        x = Tensor(np.array([[1.0], [3.0]]))
        gamma = Tensor(np.ones(1), requires_grad=True)
        beta = Tensor(np.zeros(1), requires_grad=True)
        out = batchnorm(x, gamma, beta, running=None, training=False)
        assert np.isfinite(out.data).all()


class TestUnconstrainedFlowEvaluation:
    def test_no_clock_period(self):
        """A design without a clock still evaluates (huge positive
        slacks, power normalised to 1 GHz)."""
        from repro.core import default_flow

        design = flat_design()
        design.clock_period = None
        metrics = default_flow(design).metrics
        assert metrics.tns == 0.0
        assert metrics.power > 0
