"""STA edge cases: unreachable endpoints, macro launch, activity on
macros."""

import math

import pytest

from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, PinDirection, PinRef
from repro.sta import (
    PlacementWireModel,
    TimingAnalyzer,
    TimingGraph,
    find_path_ends,
    propagate_activity,
)
from tests.sta.reference import GraphView


def design_with_macro():
    lib = make_library()
    design = Design("m")
    design.clock_period = 2.0
    design.clock_port = "clk"
    design.add_port("clk", PinDirection.INPUT)
    design.add_port("in0", PinDirection.INPUT, 0, 0)
    ram = design.add_instance("ram0", lib["RAM256X32"])
    ram.x = ram.y = 10.0
    inv = design.add_instance("inv0", lib["INV_X1"])
    inv.x = inv.y = 12.0
    n_in = design.add_net("n_in")
    design.connect_port(n_in, "in0")
    design.connect_instance_pin(n_in, ram, "A0")
    n_q = design.add_net("n_q")
    design.connect_instance_pin(n_q, ram, "Q0")
    design.connect_instance_pin(n_q, inv, "A")
    design.add_port("out0", PinDirection.OUTPUT, 20, 20)
    n_out = design.add_net("n_out")
    design.connect_instance_pin(n_out, inv, "Y")
    design.connect_port(n_out, "out0")
    clk = design.add_net("clk_net")
    clk.is_clock = True
    design.connect_port(clk, "clk")
    design.connect_instance_pin(clk, ram, "CK")
    return design


class TestMacroTiming:
    def test_macro_q_launches(self):
        design = design_with_macro()
        graph = TimingGraph(design.arrays())
        names = {graph.node_name(s) for s in graph.startpoints}
        assert "ram0.Q0" in names

    def test_macro_inputs_are_endpoints(self):
        design = design_with_macro()
        graph = TimingGraph(design.arrays())
        names = {graph.node_name(e) for e in graph.endpoints}
        assert "ram0.A0" in names
        assert "out0" in names

    def test_macro_launch_uses_macro_clk_to_q(self):
        design = design_with_macro()
        graph = TimingGraph(design.arrays())
        report = TimingAnalyzer(graph, PlacementWireModel()).update()
        ram = design.instance("ram0")
        q = GraphView(graph, design).node(ram, "Q0")
        assert report.arrival[q] == pytest.approx(ram.master.clk_to_q)

    def test_unconnected_macro_outputs_absent(self):
        design = design_with_macro()
        graph = TimingGraph(design.arrays())
        names = {graph.node_name(i) for i in range(graph.num_nodes)}
        assert "ram0.Q5" not in names  # never connected

    def test_macro_output_activity(self):
        design = design_with_macro()
        graph = TimingGraph(design.arrays())
        activity = propagate_activity(graph)
        from repro.sta.activity import REGISTER_ACTIVITY

        assert activity[design.net("n_q").index] == pytest.approx(
            REGISTER_ACTIVITY
        )


class TestPathEdgeCases:
    def test_paths_through_macro_boundary(self):
        design = design_with_macro()
        graph = TimingGraph(design.arrays())
        analyzer = TimingAnalyzer(graph, PlacementWireModel())
        paths = find_path_ends(analyzer)
        endpoints = {graph.node_name(p.endpoint) for p in paths}
        assert endpoints == {"ram0.A0", "out0"}
        for path in paths:
            assert len(path.nodes) >= 2

    def test_all_slacks_finite(self):
        design = design_with_macro()
        graph = TimingGraph(design.arrays())
        report = TimingAnalyzer(graph, PlacementWireModel()).update()
        for slack in report.endpoint_slacks.values():
            assert math.isfinite(slack)


class TestUnsupportedInputsAreDiagnosed:
    """Inputs the flat engine has no kernel for raise; there is no
    per-arc engine to drop to silently."""

    def test_custom_wire_model_rejected_at_construction(self, toy_design):
        class HalfDistanceModel(PlacementWireModel):
            def sink_distance(self, net, sink):
                return 0.5 * super().sink_distance(net, sink)

        graph = TimingGraph(toy_design.arrays())
        with pytest.raises(TypeError) as excinfo:
            TimingAnalyzer(graph, HalfDistanceModel())
        message = str(excinfo.value)
        assert "HalfDistanceModel" in message
        for supported in ("FanoutWireModel", "PlacementWireModel", "RoutedWireModel"):
            assert supported in message

    def test_pin_with_wire_and_cell_in_arcs_rejected(self, toy_design):
        # connect() cannot do this: list an output pin as a net's sink.
        u3 = toy_design.instance("u3")
        toy_design.net("n_in1").sinks.append(PinRef(u3, "Y"))
        toy_design.bump_structure_version()
        graph = TimingGraph(toy_design.arrays())
        with pytest.raises(ValueError, match=r"u3\.Y"):
            propagate_activity(graph)
