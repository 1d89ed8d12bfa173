"""Hold (min-delay) analysis tests."""

import pytest

from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, PinDirection
from repro.sta.analysis import TimingAnalyzer
from repro.sta.delay import PlacementWireModel
from repro.sta.graph import TimingGraph
from repro.sta.hold import analyze_hold
from tests.sta.reference import (
    WIRE_MODELS,
    GraphView,
    ReferenceAnalyzer,
    analyze_hold_reference,
    make_wire_model,
    scatter,
)


def back_to_back_ffs(gate_chain=1):
    """FF1.Q -> [INVs] -> FF2.D — the canonical hold topology."""
    lib = make_library()
    design = Design("hold")
    design.clock_period = 1.0
    design.clock_port = "clk"
    design.add_port("clk", PinDirection.INPUT)
    ff1 = design.add_instance("ff1", lib["DFF_X1"])
    ff2 = design.add_instance("ff2", lib["DFF_X1"])
    prev, prev_pin = ff1, "Q"
    for i in range(gate_chain):
        inv = design.add_instance(f"inv{i}", lib["INV_X1"])
        net = design.add_net(f"n{i}")
        design.connect_instance_pin(net, prev, prev_pin)
        design.connect_instance_pin(net, inv, "A")
        prev, prev_pin = inv, "Y"
    last = design.add_net("n_last")
    design.connect_instance_pin(last, prev, prev_pin)
    design.connect_instance_pin(last, ff2, "D")
    clk = design.add_net("clk_net")
    clk.is_clock = True
    design.connect_port(clk, "clk")
    design.connect_instance_pin(clk, ff1, "CK")
    design.connect_instance_pin(clk, ff2, "CK")
    # Place everything at one point: zero wire delay (worst hold case).
    for inst in design.instances:
        inst.x = inst.y = 5.0
    design.add_port("din", PinDirection.INPUT)
    din_net = design.add_net("din_net")
    design.connect_port(din_net, "din")
    design.connect_instance_pin(din_net, ff1, "D")
    return design


class TestHoldAnalysis:
    def test_direct_q_to_d_hand_computed(self):
        design = back_to_back_ffs(gate_chain=0)
        # Direct FF1.Q -> FF2.D net.
        graph = TimingGraph(design.arrays())
        analyzer = TimingAnalyzer(graph, PlacementWireModel())
        report = analyze_hold(analyzer)
        ff2 = design.instance("ff2")
        d_node = GraphView(graph, design).node(ff2, "D")
        # arrival = clk_to_q + wire (0 at same point); req = hold time.
        expected = design.instance("ff1").master.clk_to_q - ff2.master.hold_time
        assert report.endpoint_slacks[d_node] == pytest.approx(
            expected, abs=1e-6
        )

    def test_hold_met_with_default_library(self):
        """clk_to_q (85ps) > hold (10ps): back-to-back FFs meet hold."""
        design = back_to_back_ffs(gate_chain=0)
        graph = TimingGraph(design.arrays())
        report = analyze_hold(
            TimingAnalyzer(graph, PlacementWireModel())
        )
        assert report.wns > 0
        assert report.tns == 0.0
        assert report.num_failing == 0

    def test_violation_with_large_hold_requirement(self):
        design = back_to_back_ffs(gate_chain=0)
        for master in design.masters.values():
            if master.is_sequential:
                master.hold_time = 0.2  # exceeds clk_to_q
        graph = TimingGraph(design.arrays())
        report = analyze_hold(
            TimingAnalyzer(graph, PlacementWireModel())
        )
        assert report.wns < 0
        assert report.num_failing > 0

    def test_gates_add_hold_margin(self):
        bare = back_to_back_ffs(gate_chain=0)
        padded = back_to_back_ffs(gate_chain=3)

        def ff2_hold_slack(design):
            graph = TimingGraph(design.arrays())
            report = analyze_hold(
                TimingAnalyzer(graph, PlacementWireModel())
            )
            node = GraphView(graph, design).node(design.instance("ff2"), "D")
            return report.endpoint_slacks[node]

        assert ff2_hold_slack(padded) > ff2_hold_slack(bare)

    def test_uncertainty_tightens_hold(self):
        design = back_to_back_ffs()
        graph = TimingGraph(design.arrays())
        model = PlacementWireModel()
        base = analyze_hold(TimingAnalyzer(graph, model))
        tight = analyze_hold(
            TimingAnalyzer(graph, model, clock_uncertainty=0.05)
        )
        assert tight.wns == pytest.approx(base.wns - 0.05)

    def test_output_ports_not_checked(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        report = analyze_hold(
            TimingAnalyzer(graph, PlacementWireModel())
        )
        port_node = GraphView(graph, toy_design).node(None, "out0")
        assert port_node not in report.endpoint_slacks

    def test_benchmark_holds_clean(self, small_design):
        """Generated benchmarks meet hold (no zero-delay Q->D nets at
        placed distances)."""
        graph = TimingGraph(small_design.arrays())
        report = analyze_hold(
            TimingAnalyzer(graph, PlacementWireModel())
        )
        assert report.wns >= 0


def _assert_hold_identical(flat, reference):
    assert flat.wns == reference.wns
    assert flat.tns == reference.tns
    assert flat.endpoint_slacks == reference.endpoint_slacks


@pytest.mark.parametrize("make_model", WIRE_MODELS)
@pytest.mark.parametrize("design_name", ["ffs", "toy", "small"])
def test_flat_hold_matches_reference(
    design_name, make_model, toy_design, small_design_fresh
):
    """The flat min-propagation equals the per-arc oracle whichever way
    the analyzer comes by its arc delays: none yet (fresh), or the last
    update's, also after the placement moved and the analyzer re-ran."""
    design = {
        "ffs": back_to_back_ffs(gate_chain=2),
        "toy": toy_design,
        "small": scatter(small_design_fresh),
    }[design_name]
    for master in design.masters.values():
        if master.is_sequential:
            master.hold_time = 0.09  # some endpoints fail: tns is exercised
    model = make_wire_model(make_model, design)
    graph = TimingGraph(design.arrays())
    reference = ReferenceAnalyzer(design, model, clock_uncertainty=0.01)

    fresh = TimingAnalyzer(graph, model, clock_uncertainty=0.01)
    expected = analyze_hold_reference(reference)
    assert expected.endpoint_slacks
    _assert_hold_identical(analyze_hold(fresh), expected)

    updated = TimingAnalyzer(graph, model, clock_uncertainty=0.01)
    updated.update()
    _assert_hold_identical(analyze_hold(updated), expected)

    for k, inst in enumerate(design.instances[::3]):
        inst.x += 3.0 + k % 5
        inst.y -= 1.5
    updated.update()
    _assert_hold_identical(analyze_hold(updated), analyze_hold_reference(reference))
