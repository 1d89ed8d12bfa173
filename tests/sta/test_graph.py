"""Timing graph construction tests."""

import pytest

from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, PinDirection
from repro.sta.graph import TimingGraph
from tests.sta.reference import CELL, WIRE, GraphView


class TestGraphConstruction:
    def test_toy_structure(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        # Startpoints: in0, in1 ports + ff1.Q; clk excluded.
        start_names = {graph.node_name(s) for s in graph.startpoints}
        assert start_names == {"in0", "in1", "ff1.Q"}
        end_names = {graph.node_name(e) for e in graph.endpoints}
        assert end_names == {"ff1.D", "out0"}

    def test_clock_pins_absent(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        names = {graph.node_name(i) for i in range(graph.num_nodes)}
        assert "ff1.CK" not in names

    def test_cell_arcs(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        view = GraphView(graph, toy_design)
        a = view.node(toy_design.instance("u2"), "A")
        arcs = [(graph.node_name(v), kind) for v, kind, _p in view.arcs[a]]
        assert ("u2.Y", CELL) in arcs

    def test_wire_arcs(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        view = GraphView(graph, toy_design)
        y = view.node(toy_design.instance("u1"), "Y")
        arcs = [(graph.node_name(v), kind) for v, kind, _p in view.arcs[y]]
        assert ("u2.A", WIRE) in arcs

    def test_no_launch_through_ff(self, toy_design):
        """FF D must not feed FF Q (the register breaks the path)."""
        view = GraphView(TimingGraph(toy_design.arrays()), toy_design)
        d = view.node(toy_design.instance("ff1"), "D")
        assert view.arcs[d] == []

    def test_topological_order_valid(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        view = GraphView(graph, toy_design)
        position = {node: i for i, node in enumerate(graph.topo_order)}
        for u in range(graph.num_nodes):
            for v, _kind, _p in view.arcs[u]:
                assert position[u] < position[v]

    def test_generated_design_is_acyclic(self, small_design):
        graph = TimingGraph(small_design.arrays())
        assert len(graph.topo_order) == graph.num_nodes

    def test_combinational_loop_detected(self):
        lib = make_library()
        design = Design("loop")
        a = design.add_instance("a", lib["INV_X1"])
        b = design.add_instance("b", lib["INV_X1"])
        n1 = design.add_net("n1")
        design.connect_instance_pin(n1, a, "Y")
        design.connect_instance_pin(n1, b, "A")
        n2 = design.add_net("n2")
        design.connect_instance_pin(n2, b, "Y")
        design.connect_instance_pin(n2, a, "A")
        with pytest.raises(ValueError, match="combinational loop"):
            TimingGraph(design.arrays())

    def test_floating_port_gets_node(self):
        lib = make_library()
        design = Design("f")
        design.add_port("dangling", PinDirection.INPUT)
        graph = TimingGraph(design.arrays())
        assert graph.num_nodes == 1

    def test_node_name_formats(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        view = GraphView(graph, toy_design)
        u1 = toy_design.instance("u1")
        assert graph.node_name(view.node(u1, "Y")) == "u1.Y"
        assert graph.node_name(view.node(None, "in0")) == "in0"
