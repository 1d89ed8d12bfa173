"""Design database facade + cross-module integration tests."""

import numpy as np
import pytest

from repro.core import ClusteredPlacementFlow, FlowConfig, default_flow
from repro.db import DesignDatabase, load_design_files
from repro.designs import DesignSpec, generate_design
from repro.netlist.def_format import write_def
from repro.netlist.liberty import write_liberty
from repro.netlist.sdc import SdcConstraints, write_sdc
from repro.netlist.verilog import write_verilog
from repro.sta import (
    PlacementWireModel,
    analyze_power,
    propagate_activity,
    timing_graph_for,
)


class TestDesignDatabase:
    def test_lazy_views(self, small_design):
        db = DesignDatabase(small_design)
        hg1 = db.hypergraph
        hg2 = db.hypergraph
        assert hg1 is hg2
        tree1 = db.hierarchy
        assert tree1 is db.hierarchy

    def test_invalidate(self, small_design):
        db = DesignDatabase(small_design)
        hg1 = db.hypergraph
        db.invalidate()
        assert db.hypergraph is not hg1

    def test_views_consistent(self, small_design):
        db = DesignDatabase(small_design)
        assert db.hypergraph.num_vertices == small_design.num_instances
        total = len(db.hierarchy.root.subtree_instances())
        assert total == small_design.num_instances


class TestFileRoundtripIntegration:
    @pytest.fixture
    def design_files(self, tmp_path, small_design_fresh):
        design = small_design_fresh
        (tmp_path / "d.v").write_text(write_verilog(design))
        (tmp_path / "d.lib").write_text(write_liberty(design.masters))
        (tmp_path / "d.def").write_text(write_def(design))
        sdc = SdcConstraints(
            clock_period=design.clock_period, clock_port="clk"
        )
        (tmp_path / "d.sdc").write_text(write_sdc(sdc))
        return tmp_path, design

    def test_load_design_files(self, design_files):
        tmp_path, original = design_files
        db = load_design_files(
            tmp_path / "d.v",
            tmp_path / "d.lib",
            def_path=tmp_path / "d.def",
            sdc_path=tmp_path / "d.sdc",
        )
        reloaded = db.design
        assert reloaded.num_instances == original.num_instances
        assert reloaded.clock_period == pytest.approx(original.clock_period)
        assert reloaded.validate() == []
        # The clock net is marked.
        clock_nets = [n for n in reloaded.nets if n.is_clock]
        assert len(clock_nets) == 1

    def test_reloaded_design_flows(self, design_files):
        tmp_path, _original = design_files
        db = load_design_files(
            tmp_path / "d.v",
            tmp_path / "d.lib",
            sdc_path=tmp_path / "d.sdc",
        )
        result = default_flow(db.design, run_routing=False)
        assert result.metrics.hpwl > 0

    def test_load_without_optional_files(self, design_files):
        tmp_path, _original = design_files
        db = load_design_files(tmp_path / "d.v", tmp_path / "d.lib")
        assert db.design.clock_period is None


class TestSdcToggleRate:
    """``set_switching_activity -toggle_rate`` reaches the analysis: it
    is the primary inputs' toggle rate that activity propagates from."""

    @staticmethod
    def _load(tmp_path, design, rate):
        (tmp_path / "d.v").write_text(write_verilog(design))
        (tmp_path / "d.lib").write_text(write_liberty(design.masters))
        (tmp_path / "d.def").write_text(write_def(design))
        sdc = SdcConstraints(
            clock_period=design.clock_period,
            clock_port="clk",
            default_input_activity=rate,
        )
        (tmp_path / "d.sdc").write_text(write_sdc(sdc))
        return load_design_files(
            tmp_path / "d.v",
            tmp_path / "d.lib",
            def_path=tmp_path / "d.def",
            sdc_path=tmp_path / "d.sdc",
        ).design

    def test_higher_toggle_rate_more_switching_power(self, tmp_path, toy_design):
        reports = {}
        for rate in (0.1, 0.3):
            (tmp_path / str(rate)).mkdir()
            design = self._load(tmp_path / str(rate), toy_design, rate)
            assert design.input_activity == pytest.approx(rate)
            arrays = design.arrays()
            activity = propagate_activity(timing_graph_for(arrays))
            reports[rate] = analyze_power(arrays, PlacementWireModel(), activity)
        assert reports[0.3].switching > reports[0.1].switching
        assert reports[0.3].leakage == reports[0.1].leakage


class TestTimingGraphCache:
    def test_cache_returns_same_graph(self, small_design):
        a = timing_graph_for(small_design.arrays())
        b = timing_graph_for(small_design.arrays())
        assert a is b

    def test_cache_per_design(self, small_design, medium_design):
        assert timing_graph_for(small_design.arrays()) is not timing_graph_for(
            medium_design.arrays()
        )


class TestCrossFlowConsistency:
    def test_flows_leave_design_placed_in_core(self):
        design = generate_design(
            DesignSpec("x", 300, clock_period=0.7, seed=41)
        )
        ClusteredPlacementFlow(FlowConfig(run_routing=False)).run(design)
        fp = design.floorplan
        for inst in design.instances:
            assert fp.core_llx - 1e-6 <= inst.x <= fp.core_urx + 1e-6
            assert fp.core_lly - 1e-6 <= inst.y <= fp.core_ury + 1e-6

    def test_metrics_reproducible_across_runs(self):
        def run():
            design = generate_design(
                DesignSpec("x", 300, clock_period=0.7, seed=43)
            )
            flow = ClusteredPlacementFlow(FlowConfig(seed=1))
            return flow.run(design).metrics

        a = run()
        b = run()
        assert a.hpwl == pytest.approx(b.hpwl)
        assert a.tns == pytest.approx(b.tns)
        assert a.power == pytest.approx(b.power)
