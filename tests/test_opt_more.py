"""Further optimisation-pass coverage: sizing/buffering interaction."""

import pytest

from benchmarks.ext.opt import buffer_high_fanout_nets, resize_gates
from repro.place import GlobalPlacer, PlacementProblem
from repro.sta import PlacementWireModel, TimingAnalyzer, TimingGraph


class TestOptPipeline:
    @pytest.fixture
    def placed(self, medium_design_fresh):
        design = medium_design_fresh
        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        return design

    def test_buffer_then_size_improves_timing(self, placed):
        design = placed
        model = PlacementWireModel()
        graph0 = TimingGraph(design.arrays())
        before = TimingAnalyzer(graph0, model).update()

        buffer_high_fanout_nets(design, model)
        graph1 = TimingGraph(design.arrays())
        resize_gates(design, graph1, model)
        after = TimingAnalyzer(graph1, model).update()
        assert after.wns >= before.wns - 1e-9

    def test_buffering_idempotent_second_pass(self, placed):
        design = placed
        model = PlacementWireModel()
        first = buffer_high_fanout_nets(design, model)
        second = buffer_high_fanout_nets(design, model)
        assert first.buffers_inserted > 0
        # Second pass has little left to do (wire cap may still push a
        # few nets over; far fewer than the first pass).
        assert second.buffers_inserted <= first.buffers_inserted

    def test_inserted_buffers_are_buffers(self, placed):
        design = placed
        n_before = design.num_instances
        buffer_high_fanout_nets(design, PlacementWireModel())
        for inst in design.instances[n_before:]:
            assert inst.master.cell_class == "buf"
            assert "_buf" in inst.name

    def test_sizing_preserves_pin_compatibility(self, placed):
        design = placed
        graph = TimingGraph(design.arrays())
        resize_gates(design, graph, PlacementWireModel())
        # Every connection still references an existing pin.
        assert design.validate() == []
        for inst in design.instances:
            for pin_name in inst.pin_nets:
                assert pin_name in inst.master.pins
