"""Path enumeration, switching activity and power analysis tests."""

import pytest

from repro.sta.activity import (
    ACTIVITY_FLOOR,
    REGISTER_ACTIVITY,
    TRANSFER_FACTORS,
    propagate_activity,
)
from repro.sta.analysis import TimingAnalyzer
from repro.sta.delay import FanoutWireModel, PlacementWireModel, RoutedWireModel
from repro.sta.flat import flat_for
from repro.sta.graph import TimingGraph, timing_graph_for
from repro.sta.paths import find_path_ends
from repro.sta.power import analyze_power
from tests.sta import reference


class TestFindPathEnds:
    def test_one_path_per_endpoint(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        analyzer = TimingAnalyzer(graph, PlacementWireModel())
        paths = find_path_ends(analyzer)
        endpoints = [p.endpoint for p in paths]
        assert len(endpoints) == len(set(endpoints)) == 2

    def test_sorted_by_slack(self, small_design):
        graph = TimingGraph(small_design.arrays())
        analyzer = TimingAnalyzer(graph, FanoutWireModel())
        paths = find_path_ends(analyzer)
        slacks = [p.slack for p in paths]
        assert slacks == sorted(slacks)

    def test_group_count_limits(self, small_design):
        graph = TimingGraph(small_design.arrays())
        analyzer = TimingAnalyzer(graph, FanoutWireModel())
        paths = find_path_ends(analyzer, group_count=5)
        assert len(paths) == 5

    def test_path_starts_at_startpoint(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        analyzer = TimingAnalyzer(graph, PlacementWireModel())
        starts = set(graph.startpoints)
        for path in find_path_ends(analyzer):
            assert path.startpoint in starts

    def test_path_nets_are_traversed_nets(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        analyzer = TimingAnalyzer(graph, PlacementWireModel())
        ff_path = [
            p
            for p in find_path_ends(analyzer)
            if graph.node_name(p.endpoint) == "ff1.D"
        ][0]
        net_names = {toy_design.nets[i].name for i in ff_path.net_indices}
        # Path into ff1.D goes in0 -> u1 -> u2 -> ff1 (or in1 -> u2).
        assert "n2" in net_names

    def test_endpoint_count_unsupported(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        analyzer = TimingAnalyzer(graph, PlacementWireModel())
        with pytest.raises(NotImplementedError):
            find_path_ends(analyzer, endpoint_count=2)

    def test_paths_match_report_slack(self, small_design):
        graph = TimingGraph(small_design.arrays())
        analyzer = TimingAnalyzer(graph, FanoutWireModel())
        report = analyzer.update()
        worst = find_path_ends(analyzer, group_count=1)[0]
        assert worst.slack == pytest.approx(report.wns)


class TestActivity:
    def test_input_default(self, toy_design):
        toy_design.input_activity = 0.3
        activity = propagate_activity(TimingGraph(toy_design.arrays()))
        # n_in0 is driven directly by port in0.
        assert activity[toy_design.net("n_in0").index] == pytest.approx(0.3)

    def test_inverter_passthrough(self, toy_design):
        toy_design.input_activity = 0.3
        activity = propagate_activity(TimingGraph(toy_design.arrays()))
        # u1 is an inverter: output activity = input activity.
        assert activity[toy_design.net("n1").index] == pytest.approx(0.3)

    def test_register_output_activity(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        activity = propagate_activity(graph)
        assert activity[toy_design.net("n3").index] == pytest.approx(
            REGISTER_ACTIVITY
        )

    def test_clock_net_full_rate(self, toy_design):
        graph = TimingGraph(toy_design.arrays())
        activity = propagate_activity(graph)
        assert activity[toy_design.net("clk_net").index] == pytest.approx(1.0)

    def test_logic_attenuates(self, toy_design):
        toy_design.input_activity = 0.4
        activity = propagate_activity(TimingGraph(toy_design.arrays()))
        # u2 is a NAND2 ("logic" class): mean input * factor.
        n2 = activity[toy_design.net("n2").index]
        assert n2 == pytest.approx(0.4 * TRANSFER_FACTORS["logic"])

    def test_floor_enforced(self, small_design):
        small_design.input_activity = 1e-9
        activity = propagate_activity(TimingGraph(small_design.arrays()))
        driven = [n.index for n in small_design.nets if n.driver is not None]
        assert min(activity[driven]) >= ACTIVITY_FLOOR

    def test_activity_array_matches_oracle(self, toy_design, small_design):
        """One value per net index, bit for bit the per-arc walk's:
        clock nets 1.0, driven nets their driver's rate, undriven 0."""
        for design in (toy_design, small_design):
            activity = propagate_activity(TimingGraph(design.arrays()))
            assert activity.shape == (len(design.nets),)
            want = reference.propagate_activity_reference(design)
            assert activity.tolist() == want.tolist()
        toy = propagate_activity(TimingGraph(toy_design.arrays()))
        assert toy[toy_design.net("n1").index] > 0


def _toy_power(design, *args, **kwargs):
    """Power of the placed toy design at its propagated activity."""
    activity = propagate_activity(TimingGraph(design.arrays()))
    return activity, analyze_power(
        design.arrays(), PlacementWireModel(), activity, *args, **kwargs
    )


class TestPower:
    def test_components_positive(self, toy_design):
        _activity, report = _toy_power(toy_design)
        assert report.switching > 0
        assert report.internal > 0
        assert report.leakage > 0
        assert report.total == pytest.approx(
            report.switching + report.internal + report.leakage + report.clock
        )

    def test_clock_power_grows_with_wire(self, toy_design):
        _activity, base = _toy_power(toy_design, clock_wirelength=0.0)
        _activity, wired = _toy_power(
            toy_design, clock_wirelength=500.0, clock_buffers=10
        )
        assert wired.clock > base.clock
        assert wired.total > base.total

    def test_power_scales_with_frequency(self, toy_design):
        activity, slow = _toy_power(toy_design)
        toy_design.clock_period = 0.5  # 2x frequency
        fast = analyze_power(toy_design.arrays(), PlacementWireModel(), activity)
        assert fast.switching == pytest.approx(2 * slow.switching)
        assert fast.leakage == pytest.approx(slow.leakage)

    def test_activity_override(self, toy_design):
        activity, base = _toy_power(toy_design)
        model = PlacementWireModel()
        doubled = analyze_power(toy_design.arrays(), model, 2 * activity)
        assert doubled.switching == pytest.approx(2 * base.switching)
        assert doubled == reference.analyze_power_reference(
            toy_design, model, 2 * activity
        )

    def test_activity_override_reaches_internal_power(self, toy_design):
        """The activity is that of the whole report: the combinational
        cells' internal power (energy x output toggle rate) doubles
        with it too; flops stay at the full clock rate."""
        activity, base = _toy_power(toy_design)
        doubled = analyze_power(
            toy_design.arrays(), PlacementWireModel(), 2 * activity
        )
        # fJ per edge at 1 / period GHz, in mW.
        flops = sum(
            inst.master.internal_energy
            for inst in toy_design.sequential_instances()
        ) / toy_design.clock_period * 1e-3
        assert base.internal > flops > 0
        assert doubled.internal - flops == pytest.approx(2 * (base.internal - flops))
        assert doubled.leakage == base.leakage


def _net_lengths(design, model):
    flat = flat_for(timing_graph_for(design.arrays()))
    return flat.wire_net_lengths(model, *flat.geometry(model))[0]


class TestWireModels:
    """The per-net geometry the flat form computes for each model."""

    def test_fanout_model_ignores_placement(self, toy_design):
        model = FanoutWireModel()
        ni = toy_design.net("n1").index
        before = _net_lengths(toy_design, model)[ni]
        toy_design.instance("u1").x += 100
        assert _net_lengths(toy_design, model)[ni] == pytest.approx(before)

    def test_placement_model_tracks_hpwl(self, toy_design):
        model = PlacementWireModel()
        ni = toy_design.net("n1").index
        before = _net_lengths(toy_design, model)[ni]
        toy_design.instance("u2").x += 10
        assert _net_lengths(toy_design, model)[ni] == pytest.approx(before + 10)

    def test_routed_model_uses_lengths(self, toy_design):
        net = toy_design.net("n1")
        placement = _net_lengths(toy_design, PlacementWireModel())
        routed = _net_lengths(toy_design, RoutedWireModel({net.index: 123.0}))
        assert routed[net.index] == pytest.approx(123.0)
        # Fallback for unmapped nets.
        other = toy_design.net("n2").index
        assert routed[other] == pytest.approx(placement[other])

    def test_routed_detour_scales_sink_distance(self, toy_design):
        net = toy_design.net("n1")
        placement = PlacementWireModel()
        hpwl = reference.net_wirelength(placement, toy_design, net)
        routed = RoutedWireModel({net.index: 2 * hpwl})
        sink = net.sinks[0]
        distance = reference.sink_distance(placement, toy_design, net, sink)
        routed_distance = reference.sink_distance(routed, toy_design, net, sink)
        assert routed_distance == pytest.approx(2 * distance)
        # The flat wire-arc delays into n1's sinks are the oracle's.
        flat = flat_for(timing_graph_for(toy_design.arrays()))
        inst_x, inst_y = flat.geometry(routed)
        load, hp = flat.net_loads(routed, inst_x, inst_y)
        delays = flat.arc_delays(routed, load, hp, inst_x, inst_y)
        mine = delays[flat.a_wire_net == net.index].tolist()
        assert mine == [
            reference.wire_delay(routed, toy_design, net, s) for s in net.sinks
        ]

    def test_net_load_includes_pins_and_wire(self, toy_design):
        model = PlacementWireModel()
        net = toy_design.net("n1")
        pin_cap = sum(s.capacitance(toy_design) for s in net.sinks)
        flat = flat_for(timing_graph_for(toy_design.arrays()))
        load = flat.net_loads(model, *flat.geometry(model))[0][net.index]
        assert load == pytest.approx(
            pin_cap + model.c_per_um * _net_lengths(toy_design, model)[net.index]
        )
        assert load == reference.net_load(model, toy_design, net)
