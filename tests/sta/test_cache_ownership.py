"""Timing caches are owned by what they describe, and die with it.

``timing_graph_for`` keeps its graph on the flat form it was built
from (``design.arrays()``) and ``flat_for`` keeps the compilation on
the graph.  A module-level weak-key table
whose value points back at its key (``TimingGraph.arrays.design``,
``FlatTiming.graph``) can never drop the entry, so every design that
reached STA used to live until the process exited.  These tests pin
the ownership contract: once the caller lets go, a finished flow, an
ECO session and a sizing pass leave no design, graph or compilation
behind; pickles and copies never carry a graph.
"""

import copy
import gc
import pickle
import weakref
from pathlib import Path

import pytest

import repro
from repro import perf
from repro.core.flow import (
    ClusteredPlacementFlow,
    FlowConfig,
    blob_placement_flow,
    default_flow,
)
from repro.core.ppa_clustering import PPAClusteringConfig
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig
from repro.designs import DesignSpec, generate_design
from repro.eco import EcoSession, parse_edits
from benchmarks.ext.opt import resize_gates
from repro.place import GlobalPlacer, PlacementProblem
from repro.sta import PlacementWireModel
from repro.sta.flat import flat_for
from repro.sta.graph import timing_graph_for


def _design(instances=300):
    return generate_design(
        DesignSpec(
            "owned",
            instances,
            clock_period=0.7,
            logic_depth=8,
            hierarchy_depth=2,
            hierarchy_branching=3,
            seed=3,
        )
    )


def _small_design():
    # The linked object graph pickles recursively: keep it well inside
    # the default recursion limit.
    return _design(instances=100)


def _flow_config(checkpoint_dir=None):
    return FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=100),
        vpr_config=VPRConfig(
            min_cluster_instances=60,
            max_vpr_clusters=2,
            placer_iterations=2,
            candidates=default_candidate_grid()[:4],
        ),
        run_routing=True,
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
    )


def _held_caches(design):
    """Weakrefs to the design, the graph its flat form holds and that
    graph's compilation — asserting STA really ran and left both caches."""
    graph = design.arrays().timing_graph
    assert graph is not None, "STA never ran on the design's flat form"
    assert graph._flat is not None, "the graph was never compiled"
    return [weakref.ref(design), weakref.ref(graph), weakref.ref(graph._flat)]


def _assert_freed(refs):
    gc.collect()
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert not alive, f"still alive after the caller let go: {alive}"


class TestFinishedFlowFreesItsNetlist:
    def test_clustered_flow_with_routing(self):
        design = _design()
        result = ClusteredPlacementFlow(_flow_config()).run(design)
        assert result.metrics.rwl is not None
        refs = _held_caches(design)
        del design, result
        _assert_freed(refs)

    def test_default_flow(self):
        design = _design()
        result = default_flow(design)
        refs = _held_caches(design)
        del design, result
        _assert_freed(refs)

    def test_blob_placement_flow(self):
        design = _design()
        result = blob_placement_flow(design, run_routing=True)
        refs = _held_caches(design)
        del design, result
        _assert_freed(refs)


class TestEcoSessionFreesItsNetlist:
    def test_apply_then_close(self, tmp_path):
        ClusteredPlacementFlow(_flow_config(tmp_path / "ckpt")).run(_design())
        session = EcoSession(str(tmp_path / "ckpt"))
        inst = next(
            i
            for i in session.design.instances
            if i.master.name == "NAND2_X1" and not i.fixed
        )
        result = session.apply(
            parse_edits(
                [{"kind": "resize", "instance": inst.name, "master": "NAND2_X2"}]
            )
        )
        assert not result.noop and result.metrics.wns is not None
        _, graph, compiled = _held_caches(session.design)
        # A resize keeps the graph; its stale compilation goes at once.
        session.apply(
            parse_edits(
                [{"kind": "resize", "instance": inst.name, "master": "NAND2_X1"}]
            )
        )
        _assert_freed([compiled])
        assert _held_caches(session.design)[1]() is graph()
        # The pre-edit graph goes as soon as a topology edit recompiles it.
        driven = next(n for n in session.design.nets if n.driver and not n.is_clock)
        session.apply(
            parse_edits(
                [
                    {
                        "kind": "add",
                        "instance": "u_owned_buf",
                        "master": "BUF_X1",
                        "connections": {"A": driven.name, "Y": "n_owned_buf"},
                    }
                ]
            )
        )
        _assert_freed([graph])
        refs = _held_caches(session.design)
        del session, result, inst, driven
        _assert_freed(refs)


class TestResizeKeepsTheGraph:
    """A resize or swap patches the flat form's master columns in place
    (``NetlistArrays.patch_instance_master``); the timing graph lives on
    that same form and its topology is unchanged, so it is kept, and
    only its compilation is rebuilt."""

    @pytest.mark.parametrize(
        "kind, target", [("resize", "NAND2_X2"), ("swap", "NOR2_X1")]
    )
    def test_no_recompile_and_fresh_timing(self, tmp_path, kind, target):
        from repro.core.flow import evaluate_placed_design
        from repro.netlist.snapshot import design_from_snapshot, design_snapshot

        ClusteredPlacementFlow(_flow_config(tmp_path / "ckpt")).run(_design())
        session = EcoSession(str(tmp_path / "ckpt"))
        design = session.design
        candidates = [
            i for i in design.instances if i.master.name == "NAND2_X1" and not i.fixed
        ]
        perf.enable()
        perf.reset()
        try:
            graph = timing_graph_for(design.arrays())
            for inst in candidates[:3]:
                edit = {"kind": kind, "instance": inst.name, "master": target}
                kept = session.apply(parse_edits([edit])).metrics
            assert perf.counter_value("sta.graph.recompiled") == 0
            assert timing_graph_for(design.arrays()) is graph
        finally:
            perf.disable()
            perf.reset()
        # A copy carries no graph: its evaluation compiles one afresh.
        twin = design_from_snapshot(design_snapshot(design))
        fresh = evaluate_placed_design(twin.arrays(), twin.floorplan)
        for name in ("wns", "tns", "hold_wns", "hold_tns", "power", "rwl"):
            assert getattr(kept, name) == getattr(fresh, name), name


class TestSizingFreesTheStaleCompilation:
    def test_master_patch_recompiles(self):
        design = _design()
        design.clock_period = 0.2  # failing paths: the pass must resize
        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        graph = timing_graph_for(design.arrays())
        stale = weakref.ref(flat_for(graph))
        sizing = resize_gates(design, graph, PlacementWireModel())
        assert sizing.upsized + sizing.downsized > 0
        assert stale().master_version != graph.arrays.master_version
        fresh = flat_for(graph)
        _assert_freed([stale])
        assert fresh.graph is graph and flat_for(graph) is fresh
        refs = _held_caches(design)
        del design, graph, fresh
        _assert_freed(refs)


class TestCacheKeying:
    def test_recompiles_exactly_when_structure_changes(self):
        design = _design()
        graph = timing_graph_for(design.arrays())
        assert timing_graph_for(design.arrays()) is graph
        assert flat_for(graph) is flat_for(graph)
        design.bump_structure_version()
        assert design.arrays().timing_graph is None
        rebuilt = timing_graph_for(design.arrays())
        assert rebuilt is not graph and rebuilt.arrays is design.arrays()

    def test_recompile_counter_fires(self, toy_design):
        """``sta.graph.recompiled`` counts a graph replaced after a
        structural edit, not a first build, a cache hit or a move."""
        perf.enable()
        perf.reset()
        try:
            timing_graph_for(toy_design.arrays())
            timing_graph_for(toy_design.arrays())
            assert perf.counter_value("sta.graph.recompiled") == 0

            u2 = toy_design.instance("u2")
            toy_design.reconnect_pin(u2, "B", toy_design.net("n_in0"))
            timing_graph_for(toy_design.arrays())
            timing_graph_for(toy_design.arrays())
            assert perf.counter_value("sta.graph.recompiled") == 1

            # Geometry-only churn must not recompile.
            toy_design.instance("u1").x += 3.0
            timing_graph_for(toy_design.arrays())
            assert perf.counter_value("sta.graph.recompiled") == 1

            # A copy's first graph is a first build.
            timing_graph_for(copy.deepcopy(toy_design).arrays())
            assert perf.counter_value("sta.graph.recompiled") == 1
        finally:
            perf.disable()
            perf.reset()

    def test_graph_cache_rekeys_per_design(self, toy_design):
        g1 = timing_graph_for(toy_design.arrays())
        assert timing_graph_for(toy_design.arrays()) is g1
        toy_design.reconnect_pin(
            toy_design.instance("u2"), "B", toy_design.net("n_in0")
        )
        g2 = timing_graph_for(toy_design.arrays())
        assert g2 is not g1
        assert timing_graph_for(toy_design.arrays()) is g2


class TestPicklesAndCopiesCarryNoGraph:
    def test_pickle_length_unchanged_by_sta(self):
        design = _small_design()
        before = len(pickle.dumps(design))
        flat_for(timing_graph_for(design.arrays()))
        assert len(pickle.dumps(design)) == before
        clone = pickle.loads(pickle.dumps(design))
        assert clone._netlist_arrays is None
        assert timing_graph_for(clone.arrays()).arrays.design is clone

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy_compiles_its_own_graph(self, copier):
        design = _small_design()
        graph = timing_graph_for(design.arrays())
        twin = copier(design)
        twin_graph = timing_graph_for(twin.arrays())
        assert twin_graph is not graph
        assert twin_graph.arrays.design is twin
        assert timing_graph_for(design.arrays()) is graph


def test_no_weak_key_tables_in_src():
    """Ratchet: a cache lives on the object it describes.  A weak-key
    table whose value references its key never frees either."""
    offenders = [
        str(path)
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        if "WeakKeyDictionary" in path.read_text()
    ]
    assert offenders == []
