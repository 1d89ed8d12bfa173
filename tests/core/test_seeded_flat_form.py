"""The seeded and ECO placement stages run on the flat form.

* ``build_clustered_netlist`` equals the object walk it replaced
  (``tests/netlist/reference.py``) field for field, on generated
  designs and on hypothesis-drawn ECO-edited ones;
* ``EcoSession._remap_clusters`` equals its walk, tied votes included;
* the four modules walk no ``Net`` / ``Instance`` / ``PinRef`` objects
  (an AST ratchet, as ``tests/sta/test_flat_form.py`` is for STA);
* ``ClusteredPlacementFlow.run`` and ``EcoSession.apply`` write no
  ``Net.weight`` or ``Instance.fixed`` of the design they are given:
  placement inputs travel as arrays;
* ``blob_placement_flow`` is the flow with its Table 2 arms, as
  bit-identical as the body it replaced.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.clustered_netlist import build_clustered_netlist
from repro.core.flow import (
    ClusteredPlacementFlow,
    FlowConfig,
    blob_placement_flow,
    evaluate_placed_design,
)
from repro.core.ppa_clustering import ClusteringResult, PPAClusteringConfig
from repro.core.seeded import IO_NET_WEIGHT, SeededPlacementConfig, seeded_placement
from repro.core.shapes import ShapeCandidate, default_candidate_grid
from repro.core.vpr import UniformShapeSelector, VPRConfig
from repro.cluster.graph import AdjacencyGraph
from repro.cluster.louvain import louvain_communities
from repro.db.database import DesignDatabase
from repro.designs import DesignSpec, generate_design
from repro.eco import EcoSession, apply_edits, parse_edits
from repro.netlist.arrays import COLUMNS, NetlistArrays
from repro.netlist.design import Instance, Net
from tests.netlist.reference import (
    clustered_netlist_reference,
    remap_clusters_reference,
    snapshot_reference,
)
from tests.sta.test_eco_properties import KINDS, _draw_edit

SRC = Path(repro.__file__).parent
MODULES = ("core/clustered_netlist.py", "core/seeded.py", "core/flow.py", "eco/engine.py")


def _design(seed=3, instances=300, macros=2):
    return generate_design(
        DesignSpec(
            "flatseed",
            instances,
            clock_period=0.7,
            logic_depth=8,
            hierarchy_depth=2,
            hierarchy_branching=3,
            num_macros=macros,
            seed=seed,
        )
    )


def _scatter(design, rng):
    for inst in design.instances:
        inst.x, inst.y = rng.uniform(5.0, 60.0, 2).tolist()


def _assert_equals_walk(design, cluster_of, **kwargs):
    got = build_clustered_netlist(design, cluster_of, **kwargs)
    want = clustered_netlist_reference(design, cluster_of, **kwargs)
    # Net order, weights, driver / sink pins, port connections, master
    # pins, cluster positions and fixed flags.
    assert snapshot_reference(got.design) == snapshot_reference(want.design)
    # The columns the build wrote are the ones a fresh flattening of
    # the walk's design produces.
    mine, theirs = got.design.arrays(), NetlistArrays.from_design(want.design)
    for column in COLUMNS:
        a, b = getattr(mine, column), getattr(theirs, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column
    assert mine.name_pool == theirs.name_pool
    assert (mine.inst_names, mine.net_names) == (theirs.inst_names, theirs.net_names)
    for name in ("members", "shapes"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.cluster_areas.tobytes() == want.cluster_areas.tobytes()
    assert got.lef.macros == want.lef.macros
    assert got.design.floorplan is design.floorplan
    for c in range(got.num_clusters):
        inst = got.design.instance(f"cluster_{c}")
        assert list(inst.pin_nets) == list(want.design.instance(f"cluster_{c}").pin_nets)
    return got


class TestClusteredNetlistEqualsWalk:
    def test_generated_designs(self):
        for seed in range(3):
            design = _design(seed=seed)
            rng = np.random.default_rng(seed)
            _scatter(design, rng)
            assert design.ports and design.macro_instances()
            assert any(net.is_clock for net in design.nets)
            clusters = int(rng.integers(2, 9))
            cluster_of = rng.integers(0, clusters, design.num_instances)
            cluster_of[: clusters] = np.arange(clusters)  # no empty id
            multipliers = rng.uniform(1.0, 4.0, design.num_nets)
            shapes = {0: ShapeCandidate(aspect_ratio=1.5, utilization=0.8)}
            _assert_equals_walk(design, cluster_of)
            _assert_equals_walk(
                design,
                cluster_of,
                shapes=shapes,
                io_net_weight=IO_NET_WEIGHT,
                net_weight_multipliers=multipliers,
            )

    def test_flow_clustering(self, small_design_fresh):
        """The flow's own clustering, weights and macro-free design."""
        design = small_design_fresh
        db = DesignDatabase(design)
        flow = ClusteredPlacementFlow(FlowConfig(power_emphasis=1.0))
        clustering = flow._run_clustering(db)
        multipliers = flow._net_multipliers(db, clustering)
        assert multipliers is not None and (multipliers > 1.0).any()
        _assert_equals_walk(
            design,
            clustering.cluster_of,
            io_net_weight=IO_NET_WEIGHT,
            net_weight_multipliers=multipliers,
        )

    def test_singleton_and_empty_clusters(self):
        design = _design(seed=1, instances=120, macros=0)
        cluster_of = np.zeros(design.num_instances, dtype=np.int64)
        cluster_of[5] = 3  # clusters 1 and 2 have no member
        got = _assert_equals_walk(design, cluster_of)
        assert got.members[1] == [] and got.members[3] == [5]

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_eco_edited_designs(self, data):
        """Reconnect moves a pin to the end of its new net; add and
        remove renumber instances and nets."""
        design = _design(seed=data.draw(st.integers(0, 3)), instances=120)
        kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
        for serial, kind in enumerate(kinds):
            edit = _draw_edit(data, design, kind, serial)
            if edit is not None:
                apply_edits(design, parse_edits([edit]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        _scatter(design, rng)
        cluster_of = rng.integers(0, data.draw(st.integers(1, 6)), design.num_instances)
        _assert_equals_walk(
            design,
            cluster_of,
            io_net_weight=IO_NET_WEIGHT,
            net_weight_multipliers=rng.uniform(1.0, 2.0, design.num_nets),
        )


def _remap(design, cluster_of, impact):
    session = EcoSession.__new__(EcoSession)
    session.design, session.cluster_of = design, cluster_of.copy()
    dirty = session._remap_clusters(impact)
    return session.cluster_of, dirty


class TestRemapClustersEqualsWalk:
    def test_tied_votes_take_the_lowest_cluster(self):
        design = _design(seed=2, instances=120, macros=0)
        nets = [
            net
            for net in design.nets
            if not net.is_clock and net.driver is not None and net.degree == 2
        ]
        a = nets[0]
        b = next(n for n in nets if set(n.instances()).isdisjoint(a.instances()))
        cluster_of = np.full(design.num_instances, 4, dtype=np.int64)
        for inst in a.instances():
            cluster_of[inst.index] = 3
        for inst in b.instances():
            cluster_of[inst.index] = 1
        edits = parse_edits(
            [
                {
                    "kind": "add",
                    "instance": "u_tie",
                    "master": "NAND2_X1",
                    "connections": {"A": a.name, "B": b.name, "Y": "n_tie"},
                },
                {
                    "kind": "add",
                    "instance": "u_tie_load",
                    "master": "BUF_X1",
                    "connections": {"A": "n_tie"},
                },
            ]
        )
        impact = apply_edits(design, edits)
        got_of, got_dirty = _remap(design, cluster_of, impact)
        want_of, want_dirty = remap_clusters_reference(design, cluster_of, impact)
        assert got_of.tolist() == want_of.tolist() and got_dirty == want_dirty
        # Two votes each for clusters 1 and 3: the lower id wins, and
        # the load then follows its only neighbour.
        assert got_of[design.instance("u_tie").index] == 1
        assert got_of[design.instance("u_tie_load").index] == 1

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_drawn_add_edits(self, data):
        design = _design(seed=data.draw(st.integers(0, 3)), instances=120, macros=0)
        # Few clusters, so votes often tie.
        cluster_of = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 2),
                    min_size=design.num_instances,
                    max_size=design.num_instances,
                )
            ),
            dtype=np.int64,
        )
        kinds = st.sampled_from(("add", "add", "remove", "reconnect"))
        kinds = data.draw(st.lists(kinds, min_size=1, max_size=4))
        # One script, drawn against the unedited design: one edit per
        # instance.
        edits = {}
        for serial, kind in enumerate(kinds):
            edit = _draw_edit(data, design, kind, serial)
            if edit is not None:
                edits.setdefault(edit["instance"], edit)
        edits = list(edits.values())
        if not edits:
            return
        impact = apply_edits(design, parse_edits(edits))
        got_of, got_dirty = _remap(design, cluster_of, impact)
        want_of, want_dirty = remap_clusters_reference(design, cluster_of, impact)
        assert got_of.tolist() == want_of.tolist()
        assert got_dirty == want_dirty


#: Attribute names that reach the object graph.
OBJECT_ATTRS = {"instances", "nets", "pins", "pin_nets", "sinks", "driver"}


def _object_uses():
    uses = []
    for module in MODULES:
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, ast.Attribute) and node.attr in OBJECT_ATTRS:
                uses.append((module, node.lineno, node.attr))
            if isinstance(node, (ast.Name, ast.alias)) and "PinRef" in (
                getattr(node, "id", None),
                getattr(node, "name", None),
            ):
                uses.append((module, getattr(node, "lineno", 0), "PinRef"))
    return uses


def test_seeded_and_eco_modules_walk_no_objects():
    assert _object_uses() == []


def _flow_config(**kwargs):
    return FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=100),
        vpr_config=VPRConfig(
            min_cluster_instances=60,
            max_vpr_clusters=2,
            placer_iterations=2,
            candidates=default_candidate_grid()[:4],
        ),
        **kwargs,
    )


class _WriteSpy:
    """A slot descriptor that records the objects written through it."""

    def __init__(self, slot):
        self.slot = slot
        self.written = []

    def __get__(self, obj, owner=None):
        return self if obj is None else self.slot.__get__(obj, owner)

    def __set__(self, obj, value):
        self.written.append(obj)
        self.slot.__set__(obj, value)


def _spy_writes(monkeypatch):
    weight = _WriteSpy(Net.__dict__["weight"])
    fixed = _WriteSpy(Instance.__dict__["fixed"])
    monkeypatch.setattr(Net, "weight", weight)
    monkeypatch.setattr(Instance, "fixed", fixed)
    return weight, fixed


def _written(spy, objects):
    ids = {id(obj) for obj in objects}
    return [obj for obj in spy.written if id(obj) in ids]


class TestNoWritesToTheInputDesign:
    def test_flow_run(self, monkeypatch):
        design = _design(seed=4)
        weights_before = [net.weight for net in design.nets]
        weight, fixed = _spy_writes(monkeypatch)
        for tool in ("openroad", "innovus"):
            config = _flow_config(tool=tool, power_emphasis=1.0, run_routing=False)
            ClusteredPlacementFlow(config).run(design)
        assert weight.written and fixed.written, "the spies saw no write at all"
        assert _written(weight, design.nets) == []
        assert _written(fixed, design.instances) == []
        assert [net.weight for net in design.nets] == weights_before

    def test_eco_apply(self, tmp_path, monkeypatch):
        ClusteredPlacementFlow(
            _flow_config(checkpoint_dir=str(tmp_path / "ckpt"), run_routing=False)
        ).run(_design(seed=4))
        session = EcoSession(str(tmp_path / "ckpt"))
        design = session.design
        fixed_before = [inst.fixed for inst in design.instances]
        inst = next(
            i for i in design.instances if i.master.name == "NAND2_X1" and not i.fixed
        )
        net = next(n for n in design.nets if not n.is_clock and n.driver is not None)
        instances, nets = list(design.instances), list(design.nets)
        weight, fixed = _spy_writes(monkeypatch)
        result = session.apply(
            parse_edits(
                [
                    {"kind": "resize", "instance": inst.name, "master": "NAND2_X2"},
                    {
                        "kind": "add",
                        "instance": "u_spy",
                        "master": "BUF_X1",
                        "connections": {"A": net.name, "Y": "n_spy"},
                    },
                ]
            )
        )
        assert 0 < result.free_instances < result.total_instances
        assert fixed.written, "the spy saw no write at all"
        assert _written(weight, nets) == []
        assert _written(fixed, instances) == []
        assert [i.fixed for i in instances] == fixed_before


def _blob_reference(design, run_routing=False, seed=0):
    """``blob_placement_flow``'s body before it became the flow."""
    db = DesignDatabase(design)
    graph = AdjacencyGraph.from_hypergraph(db.hypergraph)
    cluster_of = louvain_communities(graph, seed=seed)
    clustering = ClusteringResult(cluster_of=cluster_of)
    selection = UniformShapeSelector().select(design, clustering.members())
    clustered = build_clustered_netlist(
        design, cluster_of, shapes=selection.shapes, io_net_weight=IO_NET_WEIGHT
    )
    seeded_placement(clustered, SeededPlacementConfig(tool="openroad"))
    metrics = evaluate_placed_design(design.arrays(), design.floorplan, {}, run_routing)
    return metrics, clustering.num_clusters


def _qor(metrics):
    return (
        metrics.hpwl,
        metrics.rwl,
        metrics.wns,
        metrics.tns,
        metrics.power,
        metrics.hold_wns,
        metrics.hold_tns,
    )


def test_blob_placement_flow_equals_its_old_body():
    for run_routing, seed in ((False, 0), (True, 2)):
        want, clusters = _blob_reference(_design(seed=5), run_routing, seed)
        design = _design(seed=5)
        result = blob_placement_flow(design, run_routing=run_routing, seed=seed)
        assert _qor(result.metrics) == _qor(want)
        assert result.num_clusters == clusters
