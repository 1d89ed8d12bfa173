"""Timing analysis tests, including hand-computed delays on the toy
circuit."""

import math

import pytest

from repro.sta.analysis import TimingAnalyzer, UNCONSTRAINED_PERIOD
from repro.sta.delay import (
    BUFFERED_LOAD_FF,
    FanoutWireModel,
    PlacementWireModel,
    effective_cell_delay,
)
from repro.sta.graph import TimingGraph
from tests.sta.reference import GraphView, net_load, wire_delay


@pytest.fixture
def toy_analysis(toy_design):
    graph = TimingGraph(toy_design.arrays())
    model = PlacementWireModel()
    analyzer = TimingAnalyzer(graph, model)
    report = analyzer.update()
    return toy_design, GraphView(graph, toy_design), model, analyzer, report


class TestArrivalPropagation:
    def test_ff_q_launch(self, toy_analysis):
        design, graph, _model, _an, report = toy_analysis
        ff1 = design.instance("ff1")
        q = graph.node(ff1, "Q")
        assert report.arrival[q] == pytest.approx(ff1.master.clk_to_q)

    def test_input_port_launch(self, toy_analysis):
        _design, graph, _model, _an, report = toy_analysis
        assert report.arrival[graph.node(None, "in0")] == pytest.approx(0.0)

    def test_hand_computed_u1_output(self, toy_analysis):
        design, graph, model, analyzer, report = toy_analysis
        u1 = design.instance("u1")
        net_in0 = design.net("n_in0")
        net1 = design.net("n1")
        from repro.netlist.design import PinRef

        wire_in = wire_delay(model, design, net_in0, PinRef(u1, "A"))
        gate = effective_cell_delay(
            u1.master.intrinsic_delay,
            u1.master.drive_resistance,
            net_load(model, design, net1),
        )
        expected = wire_in + gate
        assert report.arrival[graph.node(u1, "Y")] == pytest.approx(expected)

    def test_arrival_is_max_over_inputs(self, toy_analysis):
        design, graph, _model, _an, report = toy_analysis
        u2 = design.instance("u2")
        y = graph.node(u2, "Y")
        a = graph.node(u2, "A")
        b = graph.node(u2, "B")
        assert report.arrival[y] > max(report.arrival[a], report.arrival[b])
        # The worst predecessor is recorded for backtracking.
        assert report.worst_pred[y] in (a, b)


class TestSlacks:
    def test_endpoint_slack_formula(self, toy_analysis):
        design, graph, _model, _an, report = toy_analysis
        ff1 = design.instance("ff1")
        d = graph.node(ff1, "D")
        expected = (
            design.clock_period
            - ff1.master.setup_time
            - report.arrival[d]
        )
        assert report.endpoint_slacks[d] == pytest.approx(expected)

    def test_wns_is_min_slack(self, toy_analysis):
        _d, _g, _m, _an, report = toy_analysis
        assert report.wns == pytest.approx(min(report.endpoint_slacks.values()))

    def test_tns_only_counts_negative(self, toy_analysis):
        _d, _g, _m, _an, report = toy_analysis
        expected = sum(s for s in report.endpoint_slacks.values() if s < 0)
        assert report.tns == pytest.approx(expected)

    def test_toy_meets_timing(self, toy_analysis):
        # 1 ns period, two gates: comfortably positive slack.
        _d, _g, _m, _an, report = toy_analysis
        assert report.wns > 0
        assert report.tns == 0.0

    def test_tight_clock_fails(self, toy_design):
        toy_design.clock_period = 0.05
        graph = TimingGraph(toy_design.arrays())
        report = TimingAnalyzer(graph, PlacementWireModel()).update()
        assert report.wns < 0
        assert report.tns < 0
        assert report.num_failing > 0

    def test_clock_uncertainty_shifts_slack(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        model = PlacementWireModel()
        base = TimingAnalyzer(graph, model).update()
        shifted = TimingAnalyzer(graph, model, clock_uncertainty=0.1).update()
        assert shifted.wns == pytest.approx(base.wns - 0.1)

    def test_period_set_after_the_form_is_built(self, toy_design):
        """Loaders set a design's scalars after construction: STA reads
        the period live, not as the flat form recorded it."""
        arrays = toy_design.arrays()
        graph = TimingGraph(arrays)
        base = TimingAnalyzer(graph, PlacementWireModel()).update()
        toy_design.clock_period = 0.05
        assert toy_design.arrays() is arrays and arrays.clock_period == 1.0
        tight = TimingAnalyzer(graph, PlacementWireModel()).update()
        assert tight.wns == pytest.approx(base.wns - 0.95)

    def test_unconstrained_design(self, toy_design):
        toy_design.clock_period = None
        graph = TimingGraph(toy_design.arrays())
        report = TimingAnalyzer(graph, PlacementWireModel()).update()
        assert report.wns > UNCONSTRAINED_PERIOD / 2
        assert report.tns == 0.0


class TestRequiredTimes:
    def test_required_propagates_backward(self, toy_analysis):
        design, graph, analyzer, = (
            toy_analysis[0],
            toy_analysis[1],
            toy_analysis[3],
        )
        report = toy_analysis[4]
        u2 = design.instance("u2")
        ff1 = design.instance("ff1")
        d = graph.node(ff1, "D")
        y = graph.node(u2, "Y")
        # required(u2.Y) = required(ff1.D) - wire delay
        assert report.required[y] < report.required[d]

    def test_slack_consistency_along_worst_path(self, toy_analysis):
        """Arrival + required of the worst endpoint's predecessors are
        consistent (slack does not increase backward along the worst
        path)."""
        _d, graph, _m, _an, report = toy_analysis
        worst = min(report.endpoint_slacks, key=report.endpoint_slacks.get)
        slack_end = report.endpoint_slacks[worst]
        node = worst
        while report.worst_pred[node] != -1:
            node = report.worst_pred[node]
            node_slack = report.required[node] - report.arrival[node]
            assert node_slack <= slack_end + 1e-9


class TestVirtualBuffering:
    def test_small_load_linear(self):
        d = effective_cell_delay(0.02, 0.005, 10.0)
        assert d == pytest.approx(0.02 + 0.05)

    def test_large_load_buffered(self):
        direct = effective_cell_delay(0.0, 0.005, BUFFERED_LOAD_FF)
        buffered = effective_cell_delay(0.0, 0.005, 4 * BUFFERED_LOAD_FF)
        # Two buffer stages instead of 3x more linear delay.
        assert buffered == pytest.approx(direct + 2 * 0.045)

    def test_monotone_in_load(self):
        delays = [effective_cell_delay(0.02, 0.005, c) for c in (1, 40, 80, 400)]
        assert delays == sorted(delays)
