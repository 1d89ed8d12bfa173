"""Buffering and gate-sizing optimisation pass tests."""

import pytest

from benchmarks.ext.opt import buffer_high_fanout_nets, resize_gates
from repro.place import GlobalPlacer, PlacementProblem
from repro.sta import (
    PlacementWireModel,
    TimingAnalyzer,
    TimingGraph,
    find_path_ends,
)


@pytest.fixture
def placed_design(medium_design_fresh):
    design = medium_design_fresh
    GlobalPlacer(PlacementProblem(design)).run()
    return design


class TestBuffering:
    def test_loads_bounded_after_pass(self, placed_design):
        design = placed_design
        model = PlacementWireModel(design)
        result = buffer_high_fanout_nets(design, model, max_load=30.0)
        assert result.buffers_inserted > 0
        assert result.nets_buffered > 0
        # Pin loads per driver are now within budget (wire cap may add
        # a little; check the pin component strictly).
        for net in design.nets:
            if net.is_clock or net.driver is None:
                continue
            pin_cap = sum(s.capacitance(design) for s in net.sinks)
            assert pin_cap <= 30.0 + 1e-6, net.name

    def test_design_still_valid(self, placed_design):
        design = placed_design
        buffer_high_fanout_nets(design, PlacementWireModel(design), max_load=30.0)
        assert design.validate() == []

    def test_timing_graph_rebuildable(self, placed_design):
        design = placed_design
        buffer_high_fanout_nets(design, PlacementWireModel(design), max_load=30.0)
        graph = TimingGraph(design)
        assert len(graph.topo_order) == graph.num_nodes

    def test_fanout_reduced(self, placed_design):
        design = placed_design
        result = buffer_high_fanout_nets(
            design, PlacementWireModel(design), max_load=25.0
        )
        assert result.max_fanout_after < result.max_fanout_before

    def test_no_op_when_loads_small(self, toy_design):
        model = PlacementWireModel(toy_design)
        result = buffer_high_fanout_nets(toy_design, model, max_load=1000.0)
        assert result.buffers_inserted == 0
        assert result.nets_buffered == 0

    def test_buffers_placed_near_sinks(self, placed_design):
        design = placed_design
        n_before = design.num_instances
        buffer_high_fanout_nets(design, PlacementWireModel(design), max_load=30.0)
        fp = design.floorplan
        for inst in design.instances[n_before:]:
            assert 0 <= inst.x <= fp.die_width
            assert 0 <= inst.y <= fp.die_height

    def test_logical_reachability_preserved(self, placed_design):
        """Every original sink is still driven (transitively) by the
        original driver through the buffer tree."""
        design = placed_design
        # Record one high-fanout net's sink set.
        target = max(
            (n for n in design.nets if not n.is_clock and n.driver is not None),
            key=lambda n: n.fanout,
        )
        original_sinks = {
            (s.instance.name if s.instance else None, s.pin_name)
            for s in target.sinks
        }
        buffer_high_fanout_nets(design, PlacementWireModel(design), max_load=25.0)

        # BFS through buffer stages from the original net.
        reached = set()
        frontier = [target]
        while frontier:
            net = frontier.pop()
            for sink in net.sinks:
                inst = sink.instance
                if inst is not None and inst.master.name.startswith("BUF") and (
                    "_buf" in inst.name
                ):
                    out_net = inst.net_on("Y")
                    if out_net is not None:
                        frontier.append(out_net)
                    continue
                reached.add(
                    (inst.name if inst else None, sink.pin_name)
                )
        assert original_sinks <= reached


class TestSizing:
    def test_sizing_improves_or_preserves_wns(self, placed_design):
        design = placed_design
        graph = TimingGraph(design)
        model = PlacementWireModel(design)
        before = TimingAnalyzer(graph, model).update().wns
        result = resize_gates(design, graph, model)
        after = TimingAnalyzer(graph, model).update().wns
        assert result.paths_touched >= 0
        assert after >= before - 1e-6

    def test_upsizes_on_critical_paths(self, placed_design):
        design = placed_design
        design.clock_period = 0.2  # force many failing paths
        graph = TimingGraph(design)
        model = PlacementWireModel(design)
        result = resize_gates(design, graph, model)
        assert result.paths_touched > 0
        assert result.upsized > 0

    def test_downsizes_light_loads(self, placed_design):
        design = placed_design
        # Give an off-path X2 cell a tiny load so it's downsized.
        graph = TimingGraph(design)
        model = PlacementWireModel(design)
        x2_cells = [
            i
            for i in design.instances
            if i.master.name.endswith("_X2") and not i.master.is_sequential
        ]
        result = resize_gates(design, graph, model, downsize_load=100.0)
        if x2_cells:
            assert result.downsized > 0

    def test_design_valid_after_sizing(self, placed_design):
        design = placed_design
        graph = TimingGraph(design)
        resize_gates(design, graph, PlacementWireModel(design))
        assert design.validate() == []
