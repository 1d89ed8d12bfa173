"""Flat STA engine == the per-arc oracle, bit for bit.

The wave-sliced NumPy propagation and the per-node wire in-arcs
(:meth:`TimingGraph.wire_in_arrays`) must reproduce the per-arc Python
oracle (``tests/sta/reference.py``) exactly: same arrivals, requireds,
slacks, worst-path predecessors and backtracked path nets.  The flat
compilation's tables, the activity propagation and the power report
must equal the object walks they replaced.
"""

import numpy as np
import pytest

from repro.designs import load_benchmark
from repro.sta.activity import propagate_activity
from repro.sta.analysis import TimingAnalyzer
from repro.sta.flat import FlatTiming
from repro.sta.graph import TimingGraph, timing_graph_for
from repro.sta.paths import find_path_ends
from repro.sta.power import analyze_power
from tests.sta.reference import (
    WIRE,
    WIRE_MODELS,
    GraphView,
    ReferenceAnalyzer,
    analyze_power_reference,
    flat_tables_reference,
    make_wire_model,
    propagate_activity_reference,
    scatter,
)


def _designs():
    return ["toy", "aes"]


@pytest.fixture(params=_designs())
def design(request, toy_design):
    if request.param == "toy":
        return toy_design
    return scatter(load_benchmark("aes", use_cache=False))


@pytest.fixture(params=WIRE_MODELS)
def wire_model(request, design):
    return make_wire_model(request.param, design)


class TestVectorizedEqualsScalar:
    def test_full_update_bit_identical(self, design, wire_model):
        graph = TimingGraph(design.arrays())
        vec = TimingAnalyzer(graph, wire_model).update()
        ref = ReferenceAnalyzer(design, wire_model).update()
        assert vec.wns == ref.wns
        assert vec.tns == ref.tns
        assert vec.endpoint_slacks == ref.endpoint_slacks
        assert list(vec.arrival) == list(ref.arrival)
        assert list(vec.required) == list(ref.required)
        assert list(vec.worst_pred) == list(ref.worst_pred)

    def test_paths_bit_identical(self, design, wire_model):
        vec = TimingAnalyzer(TimingGraph(design.arrays()), wire_model)
        ref = ReferenceAnalyzer(design, wire_model)
        vec_paths = find_path_ends(vec, group_count=100)
        ref_paths = find_path_ends(ref, group_count=100)
        assert len(vec_paths) == len(ref_paths) > 0
        for a, b in zip(vec_paths, ref_paths):
            assert a.nodes == b.nodes
            assert a.net_indices == b.net_indices
            assert a.slack == b.slack


class TestWireInArrays:
    def test_matches_adjacency_first_wire_arc(self, design):
        """wire_in_arrays() == the first wire in-arc per node from the
        tuple adjacency (the scalar backtrack's hop test)."""
        graph = TimingGraph(design.arrays())
        view = GraphView(graph, design)
        wire_src, wire_net = graph.wire_in_arrays()
        for node in range(graph.num_nodes):
            expected_src, expected_net = -1, -1
            for u, kind, payload in view.preds[node]:
                if kind == WIRE:
                    expected_src = u
                    expected_net = payload.index
                    break
            assert wire_src[node] == expected_src
            assert wire_net[node] == expected_net

    def test_adjacency_matches_flat_arrays(self, design):
        """The oracle's tuple adjacency agrees with the flat arc arrays
        it was derived from (counts and arc endpoints)."""
        graph = TimingGraph(design.arrays())
        view = GraphView(graph, design)
        total_arcs = sum(len(a) for a in view.arcs)
        total_preds = sum(len(p) for p in view.preds)
        assert total_arcs == total_preds == len(graph.flat_arc_arrays()[0])
        for u in range(graph.num_nodes):
            for v, kind, _payload in view.arcs[u]:
                assert (u, kind) in {
                    (src, k) for src, k, _p in view.preds[v]
                }


class TestFlatTablesEqualTheWalk:
    def test_tables_bit_identical(self, design):
        graph = TimingGraph(design.arrays())
        flat = FlatTiming(graph)
        for name, expected in flat_tables_reference(graph, design).items():
            assert getattr(flat, name).tolist() == expected.tolist(), name


class TestActivityAndPowerEqualTheWalk:
    def test_activity_bit_identical(self, design):
        activity = propagate_activity(TimingGraph(design.arrays()))
        expected = propagate_activity_reference(design)
        assert activity.tolist() == expected.tolist()
        # The input toggle rate is read live, after the form was built.
        design.input_activity = 0.35
        activity = propagate_activity(timing_graph_for(design.arrays()))
        assert activity.tolist() == propagate_activity_reference(design).tolist()

    def test_power_bit_identical(self, design, wire_model):
        activity = propagate_activity(timing_graph_for(design.arrays()))
        halved = activity.copy()
        halved[::2] *= 0.5
        for given in (activity, halved, np.zeros_like(activity)):
            kwargs = dict(clock_wirelength=123.5, clock_buffers=3)
            assert analyze_power(design.arrays(), wire_model, given, **kwargs) == (
                analyze_power_reference(design, wire_model, given, **kwargs)
            )
