"""EcoSession over a real checkpointed run: reuse accounting + QoR.

One module-scoped base run (checkpoint + evaluation cache) feeds every
test; sessions re-open it fresh so tests stay independent.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.core.flow import ClusteredPlacementFlow, FlowConfig
from repro.core.stages import encode_stage
from repro.core.ppa_clustering import PPAClusteringConfig
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig
from repro.designs import DesignSpec, generate_design
from repro.eco import EcoSession, parse_edits, run_eco
from repro.netlist.snapshot import design_snapshot
from repro.recovery import CheckpointError


def _fresh_design():
    return generate_design(
        DesignSpec(
            "ecotest",
            700,
            clock_period=0.7,
            logic_depth=10,
            hierarchy_depth=2,
            hierarchy_branching=3,
            seed=11,
        )
    )


def _flow_config(tmp, run_routing=False):
    return FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=150),
        vpr_config=VPRConfig(
            min_cluster_instances=80,
            max_vpr_clusters=3,
            placer_iterations=2,
            candidates=default_candidate_grid()[:6],
        ),
        run_routing=run_routing,
        checkpoint_dir=str(tmp / "ckpt"),
        cache_dir=str(tmp / "cache"),
    )


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eco_base")
    config = _flow_config(tmp, run_routing=True)
    result = ClusteredPlacementFlow(config).run(_fresh_design())
    return tmp, result


def _session(base_run):
    tmp, _ = base_run
    return EcoSession(str(tmp / "ckpt"), cache_dir=str(tmp / "cache"))


def _resize_edit(design):
    inst = next(
        i
        for i in design.instances
        if i.master.name == "NAND2_X1" and not i.fixed
    )
    return [{"kind": "resize", "instance": inst.name, "master": "NAND2_X2"}]


class TestNoop:
    def test_noop_serves_checkpointed_metrics_bit_identical(self, base_run):
        _, base = base_run
        result = _session(base_run).apply([])
        assert result.noop
        assert result.metrics.hpwl == base.metrics.hpwl
        assert result.metrics.wns == base.metrics.wns
        assert result.metrics.tns == base.metrics.tns
        assert result.metrics.power == base.metrics.power

    def test_noop_summary_round_trips_json(self, base_run):
        summary = _session(base_run).apply([]).summary()
        assert json.loads(json.dumps(summary))["noop"] is True


class TestIncrementalEdit:
    def test_resize_frees_only_dirty_clusters(self, base_run):
        session = _session(base_run)
        edits = parse_edits(_resize_edit(session.design))
        result = session.apply(edits)
        assert not result.noop
        assert result.dirty_clusters
        total_clusters = int(session.cluster_of.max()) + 1
        assert len(result.dirty_clusters) < total_clusters
        assert 0 < result.free_instances < result.total_instances
        assert result.metrics.hpwl > 0
        assert result.metrics.wns is not None

    def test_sequential_applies_share_session(self, base_run):
        session = _session(base_run)
        first = session.apply(parse_edits(_resize_edit(session.design)))
        victim = next(
            i
            for i in session.design.instances
            if not i.fixed
            and not i.master.is_sequential
            and not i.master.is_macro
        )
        second = session.apply(
            parse_edits([{"kind": "remove", "instance": victim.name}])
        )
        assert second.total_instances == first.total_instances - 1
        assert second.metrics.hpwl > 0

    def test_remove_keeps_cluster_assignment_dense(self, base_run):
        session = _session(base_run)
        victim = next(
            i
            for i in session.design.instances
            if not i.fixed
            and not i.master.is_sequential
            and not i.master.is_macro
        )
        session.apply(
            parse_edits([{"kind": "remove", "instance": victim.name}])
        )
        assert len(session.cluster_of) == session.design.num_instances
        assert (session.cluster_of >= 0).all()

    def test_added_cell_joins_neighbour_cluster(self, base_run):
        session = _session(base_run)
        # Pick a net with several instance pins; the new cell must
        # land in the majority cluster of its neighbours.
        net = max(
            (n for n in session.design.nets if not n.is_clock),
            key=lambda n: len(list(n.instances())),
        )
        neighbours = [inst.index for inst in net.instances()]
        session.apply(
            parse_edits(
                [
                    {
                        "kind": "add",
                        "instance": "u_eco_buf",
                        "master": "BUF_X1",
                        "connections": {"A": net.name, "Y": "n_eco_buf"},
                    }
                ]
            )
        )
        new = session.design.instance("u_eco_buf")
        neighbour_clusters = session.cluster_of[neighbours]
        assert session.cluster_of[new.index] in neighbour_clusters
        # Seeded inside the core, not at the origin.
        fp = session.design.floorplan
        assert fp.core_llx <= new.x <= fp.core_urx
        assert fp.core_lly <= new.y <= fp.core_ury


class TestReuse:
    def test_unchanged_eligible_clusters_reused(self, base_run):
        session = _session(base_run)
        edits = parse_edits(_resize_edit(session.design))
        result = session.apply(edits)
        # At least one eligible cluster escaped the dirty set and was
        # served from the checkpointed shapes (design is sized so the
        # resize cannot touch every cluster).
        assert result.reused_clusters + len(result.resweep_clusters) > 0
        for cid in result.resweep_clusters:
            assert cid in result.shapes

    def test_resweep_traffic_reaches_cache_lifetime_totals(self, base_run):
        """A re-sweep goes through ``sweep_clusters``, so its cache
        traffic lands in the totals behind ``repro cache stats`` (a
        dirty cluster's content changed: its lookups are misses and
        its evaluations are stored)."""
        session = _session(base_run)
        before = session.cache.read_totals()
        largest = int(np.bincount(session.cluster_of).argmax())  # swept
        inst = next(
            i
            for i in session.design.instances
            if session.cluster_of[i.index] == largest
            and i.master.name == "NAND2_X1"
        )
        result = session.apply(
            parse_edits(
                [{"kind": "resize", "instance": inst.name, "master": "NAND2_X2"}]
            )
        )
        assert largest in result.resweep_clusters
        after = session.cache.read_totals()
        grid = len(session.vpr_config.candidates)
        swept = len(result.resweep_clusters) * grid
        lookups = (after["hits"] - before["hits"]) + (
            after["misses"] - before["misses"]
        )
        assert lookups == swept
        misses = after["misses"] - before["misses"]
        assert after["stores"] - before["stores"] == misses > 0

    def test_non_vpr_base_keeps_its_shapes(self, tmp_path):
        """Only an exact-V-P&R base run can be re-swept from its
        checkpoint: after a ``--shapes uniform`` run an edit must not
        hand the dirty clusters swept shapes."""
        from repro import perf
        from repro.core.shapes import uniform_shape
        from repro.core.vpr import UniformShapeSelector

        config = _flow_config(tmp_path)
        config.shape_selector = UniformShapeSelector()
        ClusteredPlacementFlow(config).run(_fresh_design())
        session = EcoSession(str(tmp_path / "ckpt"), cache_dir=str(tmp_path / "cache"))
        largest = int(np.bincount(session.cluster_of).argmax())  # eligible
        inst = next(
            i
            for i in session.design.instances
            if session.cluster_of[i.index] == largest
            and i.master.name == "NAND2_X1"
        )
        edits = [{"kind": "resize", "instance": inst.name, "master": "NAND2_X2"}]
        perf.enable()
        perf.reset()
        try:
            result = session.apply(parse_edits(edits))
            assert perf.counter_value("eco.vpr.resweep") == 0
        finally:
            perf.disable()
            perf.reset()
        assert largest in result.dirty_clusters
        assert result.resweep_clusters == []
        assert set(result.shapes.values()) == {uniform_shape()}
        assert result.metrics.hpwl > 0

    def test_run_eco_one_shot(self, base_run):
        tmp, base = base_run
        result = run_eco(str(tmp / "ckpt"), [], cache_dir=str(tmp / "cache"))
        assert result.noop
        assert result.metrics.hpwl == base.metrics.hpwl


class TestErrors:
    def test_missing_checkpoint_dir(self, tmp_path):
        with pytest.raises(CheckpointError, match="--checkpoint"):
            EcoSession(str(tmp_path / "nope"))

    def test_unfinished_run_refused_for_noop(self, tmp_path):
        """A checkpoint whose metrics stage never completed cannot
        serve a bit-identical no-op."""
        config = _flow_config(tmp_path, run_routing=False)
        ClusteredPlacementFlow(config).run(_fresh_design())
        session = EcoSession(str(tmp_path / "ckpt"))
        store = session.store
        # Simulate an interrupted base run by dropping the final stage.
        (store.directory / "stage_metrics.pkl").unlink()
        session2 = EcoSession(str(tmp_path / "ckpt"))
        with pytest.raises(CheckpointError, match="metrics"):
            session2.apply([])

    def test_eco_base_of_an_older_build_is_refused_with_a_diagnosis(
        self, base_run, tmp_path
    ):
        """An ``eco_base`` record whose snapshot is not the one form
        this build decodes (an older build wrote a dict of tuples).
        There is no second decoder for it: ECO refuses such a
        checkpoint by name and remedy — while resume, which never loads
        ``eco_base``, is unaffected."""
        tmp, base = base_run
        old = tmp_path / "ckpt"
        shutil.copytree(tmp / "ckpt", old)
        session = EcoSession(str(old))
        snapshot = design_snapshot(session.design)
        snapshot["form"] = "repro.netlist.snapshot/0"
        key = session.store.stage_key("eco_base")
        session.store.save_stage(
            "eco_base", key, encode_stage("eco_base", key, {"design": snapshot})
        )
        with pytest.raises(CheckpointError) as excinfo:
            EcoSession(str(old))
        message = str(excinfo.value)
        assert str(old) in message and "eco_base" in message
        assert "older build or damaged" in message
        assert "re-run the base flow with --checkpoint" in message

        (old / "stage_metrics.pkl").unlink()  # an interrupted base run
        config = dataclasses.replace(
            _flow_config(tmp_path, run_routing=True), resume=True
        )
        resumed = ClusteredPlacementFlow(config).run(_fresh_design())
        assert resumed.metrics.hpwl == base.metrics.hpwl
        assert resumed.metrics.wns == base.metrics.wns

    def test_eco_base_of_the_per_net_activity_form_is_refused(
        self, base_run, tmp_path
    ):
        """An ``eco_base`` in the ``repro.netlist.arrays/1`` form (a
        per-net activity column, no input toggle rate) opens no session:
        a diagnosed ``CheckpointError``, never a read at a default rate."""
        tmp, _base = base_run
        old = tmp_path / "ckpt"
        shutil.copytree(tmp / "ckpt", old)
        session = EcoSession(str(old))
        snapshot = design_snapshot(session.design)
        snapshot["form"] = "repro.netlist.arrays/1"
        del snapshot["header"]["input_activity"]
        snapshot["columns"]["net_activity"] = np.zeros(session.design.num_nets)
        key = session.store.stage_key("eco_base")
        session.store.save_stage(
            "eco_base", key, encode_stage("eco_base", key, {"design": snapshot})
        )
        with pytest.raises(CheckpointError, match="older build or damaged"):
            EcoSession(str(old))

    def test_inconsistent_clustering_refused(self, base_run):
        session = _session(base_run)
        session.cluster_of = session.cluster_of[:-1]
        # Direct state surgery is out of contract; the public check is
        # construction-time: a fresh session re-validates stage sizes.
        fresh = _session(base_run)
        assert len(fresh.cluster_of) == fresh.design.num_instances
