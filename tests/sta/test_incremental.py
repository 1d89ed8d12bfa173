"""Incremental STA == full STA, bit for bit.

After :meth:`TimingAnalyzer.invalidate_nets`, the next update
re-propagates only the affected cone.  The contract is strict: slacks,
arrival/required times, worst-path predecessors, path lists and
switching activity must be byte-identical to a from-scratch full
update after any sequence of geometry changes — the incremental path
may only change wall-clock, never results.
"""

import numpy as np
import pytest

from repro import perf
from repro.designs import load_benchmark
from repro.sta.activity import propagate_activity
from repro.sta.analysis import TimingAnalyzer
from repro.sta.delay import FanoutWireModel, PlacementWireModel
from repro.sta.graph import TimingGraph
from repro.sta.paths import find_path_ends
from tests.sta.reference import propagate_activity_reference


@pytest.fixture(autouse=True)
def _clean_perf():
    perf.disable()
    perf.reset()
    yield
    perf.disable()
    perf.reset()


def _nets_of_instances(design):
    """Instance index -> indices of nets on any of its pins."""
    nets_of = {i: set() for i in range(design.num_instances)}
    for net in design.nets:
        for ref in net.pins():
            if ref.instance is not None:
                nets_of[ref.instance.index].add(net.index)
    return nets_of


def _assert_reports_identical(incremental, full):
    assert incremental.wns == full.wns
    assert incremental.tns == full.tns
    assert incremental.endpoint_slacks == full.endpoint_slacks
    assert list(incremental.arrival) == list(full.arrival)
    assert list(incremental.required) == list(full.required)
    assert list(incremental.worst_pred) == list(full.worst_pred)


def _assert_paths_identical(inc_analyzer, full_analyzer, count=50):
    inc_paths = find_path_ends(inc_analyzer, group_count=count)
    full_paths = find_path_ends(full_analyzer, group_count=count)
    assert len(inc_paths) == len(full_paths)
    for a, b in zip(inc_paths, full_paths):
        assert a.nodes == b.nodes
        assert a.net_indices == b.net_indices
        assert a.slack == b.slack


def _perturb(design, nets_of, rng, fraction=0.05):
    """Move a random subset of instances; returns the dirty net set."""
    movable = [inst for inst in design.instances if not inst.fixed]
    count = max(1, int(len(movable) * fraction))
    picks = rng.choice(len(movable), size=count, replace=False)
    dirty = set()
    for i in picks.tolist():
        inst = movable[i]
        inst.x += float(rng.uniform(-20.0, 20.0))
        inst.y += float(rng.uniform(-20.0, 20.0))
        dirty |= nets_of[inst.index]
    return dirty


class TestIncrementalToy:
    def test_single_move_matches_full(self, toy_design):
        graph = TimingGraph(toy_design)
        model = PlacementWireModel(toy_design)
        analyzer = TimingAnalyzer(graph, model)
        analyzer.update()

        u1 = toy_design.instance("u1")
        u1.x += 15.0
        u1.y -= 7.0
        dirty = _nets_of_instances(toy_design)[u1.index]
        analyzer.invalidate_nets(dirty)
        incremental = analyzer.update()

        fresh = TimingAnalyzer(TimingGraph(toy_design), model)
        _assert_reports_identical(incremental, fresh.update())

    def test_invalidate_accepts_net_objects(self, toy_design):
        graph = TimingGraph(toy_design)
        analyzer = TimingAnalyzer(graph, PlacementWireModel(toy_design))
        analyzer.update()
        u1 = toy_design.instance("u1")
        u1.x += 5.0
        dirty = sorted(_nets_of_instances(toy_design)[u1.index])
        # Net objects and raw indices are interchangeable.
        mixed = [toy_design.nets[dirty[0]]] + dirty[1:]
        analyzer.invalidate_nets(mixed)
        report_a = analyzer.update()
        fresh = TimingAnalyzer(TimingGraph(toy_design), PlacementWireModel(toy_design))
        _assert_reports_identical(report_a, fresh.update())

    def test_plain_update_stays_full(self, toy_design):
        """update() without invalidate_nets keeps full-update semantics
        even after a previous incremental round."""
        graph = TimingGraph(toy_design)
        analyzer = TimingAnalyzer(graph, PlacementWireModel(toy_design))
        analyzer.update()
        analyzer.invalidate_nets([0])
        analyzer.update()
        toy_design.instance("u2").x += 30.0
        # No invalidation: the next update must still see the move.
        report = analyzer.update()
        fresh = TimingAnalyzer(TimingGraph(toy_design), PlacementWireModel(toy_design))
        _assert_reports_identical(report, fresh.update())


class TestIncrementalRandomized:
    @pytest.fixture(scope="class")
    def aes(self):
        design = load_benchmark("aes", use_cache=False)
        return design, _nets_of_instances(design)

    def test_randomized_perturbation_rounds(self, aes):
        design, nets_of = aes
        model = PlacementWireModel(design)
        graph = TimingGraph(design)
        analyzer = TimingAnalyzer(graph, model)
        analyzer.update()
        rng = np.random.default_rng(0)
        for _round in range(4):
            dirty = _perturb(design, nets_of, rng)
            analyzer.invalidate_nets(dirty)
            incremental = analyzer.update()
            fresh = TimingAnalyzer(TimingGraph(design), model)
            full = fresh.update()
            _assert_reports_identical(incremental, full)
            _assert_paths_identical(analyzer, fresh)
            # Activity rides on the same graph compilation; the flat
            # propagation and the per-arc oracle must agree after the
            # perturbation too.
            assert propagate_activity(graph) == pytest.approx(
                propagate_activity_reference(TimingGraph(design))
            )

    def test_fanout_model_rounds(self, aes):
        """The geometry-free fanout model exercises the no-coords
        incremental path (loads change only via invalidated nets)."""
        design, nets_of = aes
        model = FanoutWireModel(design)
        analyzer = TimingAnalyzer(TimingGraph(design), model)
        analyzer.update()
        rng = np.random.default_rng(3)
        dirty = _perturb(design, nets_of, rng)
        analyzer.invalidate_nets(dirty)
        incremental = analyzer.update()
        full = TimingAnalyzer(TimingGraph(design), model).update()
        _assert_reports_identical(incremental, full)

    def test_counters_record_skipped_arcs(self, aes):
        design, nets_of = aes
        model = PlacementWireModel(design)
        analyzer = TimingAnalyzer(TimingGraph(design), model)
        analyzer.update()
        rng = np.random.default_rng(1)
        dirty = _perturb(design, nets_of, rng, fraction=0.01)
        perf.enable()
        analyzer.invalidate_nets(dirty)
        analyzer.update()
        assert perf.counter_value("sta.incremental.updates") == 1
        evaluated = perf.counter_value("sta.incremental.arcs_evaluated")
        skipped = perf.counter_value("sta.incremental.arcs_skipped")
        assert evaluated > 0
        # A 1% perturbation must leave most of the graph untouched.
        assert skipped > evaluated

    def test_invalidate_everything_matches_full(self, aes):
        design, nets_of = aes
        model = PlacementWireModel(design)
        analyzer = TimingAnalyzer(TimingGraph(design), model)
        analyzer.update()
        rng = np.random.default_rng(2)
        _perturb(design, nets_of, rng, fraction=0.2)
        analyzer.invalidate_nets(range(design.num_nets))
        incremental = analyzer.update()
        full = TimingAnalyzer(TimingGraph(design), model).update()
        _assert_reports_identical(incremental, full)
