"""Flow-level telemetry integration: streams, span tree, events, and
the fleet worker round-trip (including crash containment)."""

import math
import os

import pytest

from repro import perf, telemetry
from repro.core import ClusteredPlacementFlow, FlowConfig
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import (
    VPRConfig,
    VPRFramework,
    VPRShapeSelector,
)
from repro.db.database import DesignDatabase


def _flow_config(**vpr_kwargs):
    vpr = VPRConfig(
        min_cluster_instances=50,
        max_vpr_clusters=2,
        placer_iterations=2,
        **vpr_kwargs,
    )
    return FlowConfig(vpr_config=vpr, run_routing=True)


class TestFlowTelemetry:
    def test_end_to_end_run_records_everything(self, small_design_fresh):
        telemetry.enable()
        result = ClusteredPlacementFlow(_flow_config()).run(small_design_fresh)
        assert result.metrics.hpwl > 0

        session = telemetry.get_session()
        streams = set(session.metrics.names())
        # The acceptance bar: >= 5 distinct streams including the
        # per-iteration placement convergence and per-candidate costs.
        assert {
            "gp.hpwl",
            "gp.cluster.hpwl",
            "vpr.total_cost",
            "vpr.hpwl_cost",
            "vpr.congestion_cost",
            "route.overflow",
            "sta.wns",
        } <= streams
        assert len(telemetry.stream("gp.hpwl")) > 1  # a trajectory
        n_cand = len(VPRConfig().candidates)
        n_swept = len(result.selection.sweeps)
        assert n_swept >= 1
        assert len(telemetry.stream("vpr.total_cost")) == n_swept * n_cand

        names = {r["name"] for r in session.tracer.export()}
        assert {
            "flow.clustering",
            "flow.vpr",
            "vpr.select",
            "vpr.candidate",
            "place.global",
            "flow.seeded_placement",
            "flow.route",
            "route.global",
            "flow.sta",
            "sta.update",
        } <= names

        event_types = {e["type"] for e in session.events.export()}
        assert {
            "flow.start",
            "cluster.formed",
            "vpr.shape_selected",
            "placement.seeded",
            "flow.done",
        } <= event_types

    def test_shape_selected_reports_the_winners_total_cost(self, small_design_fresh):
        """Each ``vpr.shape_selected`` event carries the selected
        shape and the Total Cost of the argmin over its sweep."""
        telemetry.enable()
        result = ClusteredPlacementFlow(_flow_config()).run(small_design_fresh)
        framework = VPRFramework(_flow_config().vpr_config)
        expected = []
        for sweep in result.selection.sweeps:
            best = framework._best_of(sweep.evaluations)
            assert best.candidate == sweep.best
            expected.append(
                (sweep.cluster_id, best.candidate.aspect_ratio,
                 best.candidate.utilization, best.total(framework.config.delta))
            )
        events = [
            (e["cluster"], e["ar"], e["util"], e["total_cost"])
            for e in telemetry.get_session().events.export()
            if e["type"] == "vpr.shape_selected"
        ]
        assert expected and events == expected

    def test_virtual_die_streams_muted(self, small_design_fresh):
        """V-P&R's internal placer/router runs must not pollute the
        flow-level gp.* / route.* convergence streams."""
        telemetry.enable()
        ClusteredPlacementFlow(_flow_config()).run(small_design_fresh)
        # One flow-level route: a single overflow observation, despite
        # dozens of virtual-die routing runs inside V-P&R.
        assert len(telemetry.stream("route.overflow")) == 1
        # gp.hpwl only comes from the flat incremental refinement.
        gp = telemetry.stream("gp.hpwl")
        incr_iters = max(gp.steps)
        assert gp.steps == sorted(gp.steps)
        assert incr_iters < 40  # not hundreds of virtual-die rounds

    def test_disabled_flow_records_nothing(self, small_design_fresh):
        assert not telemetry.is_enabled()
        ClusteredPlacementFlow(_flow_config()).run(small_design_fresh)
        session = telemetry.get_session()
        assert len(session.tracer) == 0
        assert session.metrics.names() == []
        assert len(session.events) == 0


@pytest.fixture(scope="module")
def small_clusters(small_design):
    db = DesignDatabase(small_design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=100)
    )
    return small_design, clustering.members()


def _sweep_config(jobs):
    return VPRConfig(
        min_cluster_instances=50,
        max_vpr_clusters=2,
        placer_iterations=2,
        jobs=jobs,
    )


class TestWorkerTelemetry:
    def test_worker_spans_reparented_into_parent_trace(self, small_clusters):
        """One span tree for every executor: vpr.select -> vpr.sweep ->
        vpr.candidate, whether the candidates ran in this process or
        were merged in from fleet workers."""
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = small_clusters
        for jobs, executor in ((1, "inline"), (2, "fleet")):
            telemetry.enable()  # fresh session
            selection = VPRShapeSelector(_sweep_config(jobs=jobs)).select(
                design, members
            )
            assert selection.sweeps

            records = telemetry.get_session().tracer.export()
            by_id = {r["id"]: r for r in records}
            candidates = [r for r in records if r["name"] == "vpr.candidate"]
            n_cand = len(VPRConfig().candidates)
            assert len(candidates) == len(selection.sweeps) * n_cand
            (sweep,) = [r for r in records if r["name"] == "vpr.sweep"]
            assert sweep["attrs"]["executor"] == executor
            assert sweep["attrs"]["jobs"] == jobs
            assert sweep["attrs"]["items"] == len(candidates)
            assert by_id[sweep["parent"]]["name"] == "vpr.select"

            # The lockstep placement and the stacked route of a batch of
            # candidates are siblings of its candidate spans, one each
            # per batch (attr `systems` = the batch size), each holding
            # the kernel's own span.
            for name in ("vpr.candidate", "vpr.route", "vpr.place"):
                assert {
                    r["parent"] for r in records if r["name"] == name
                } == {sweep["id"]}
            for name, outer in (
                ("route.global", "vpr.route"), ("place.global", "vpr.place")
            ):
                assert {
                    by_id[r["parent"]]["name"]
                    for r in records
                    if r["name"] == name
                } == {outer}
            for name in ("route.global", "place.global"):
                batches = [r for r in records if r["name"] == name]
                assert sum(r["attrs"]["systems"] for r in batches) == len(
                    candidates
                )

    def test_parallel_streams_match_serial(self, small_clusters):
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = small_clusters

        telemetry.enable()
        VPRShapeSelector(_sweep_config(jobs=1)).select(design, members)
        serial = telemetry.stream("vpr.total_cost").values
        telemetry.enable()  # fresh session
        VPRShapeSelector(_sweep_config(jobs=2)).select(design, members)
        parallel = telemetry.stream("vpr.total_cost").values
        assert serial == parallel  # parent-side recording: bit-identical


class TestWorkerCrash:
    def test_crashed_item_reevaluated_and_reported(
        self, small_clusters, monkeypatch
    ):
        """A worker-side exception must not corrupt selection: the item
        is retried in the parent, partial perf counters merge, and a
        worker.error event is emitted."""
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = small_clusters

        baseline = VPRShapeSelector(_sweep_config(jobs=1)).select(
            design, members
        )

        parent_pid = os.getpid()
        original = VPRFramework.evaluate_candidates

        def flaky(self, sub, cell_area, candidates, cluster_id=None):
            if (
                os.getpid() != parent_pid
                and self.config.candidates[0] in candidates
            ):
                raise RuntimeError("synthetic worker crash")
            return original(
                self, sub, cell_area, candidates, cluster_id=cluster_id
            )

        monkeypatch.setattr(VPRFramework, "evaluate_candidates", flaky)
        perf.enable()
        perf.reset()
        telemetry.enable()
        try:
            crashed = VPRShapeSelector(_sweep_config(jobs=2)).select(
                design, members
            )
        finally:
            perf.disable()

        assert crashed.shapes == baseline.shapes
        for b_sweep, c_sweep in zip(baseline.sweeps, crashed.sweeps):
            for b_eval, c_eval in zip(b_sweep.evaluations, c_sweep.evaluations):
                assert not math.isnan(c_eval.hpwl_cost)
                assert b_eval.hpwl_cost == c_eval.hpwl_cost

        n_clusters = len(crashed.sweeps)
        assert perf.counter_value("vpr.worker.error") >= n_clusters
        errors = telemetry.get_session().events.export()
        error_events = [e for e in errors if e["type"] == "worker.error"]
        assert error_events
        assert "synthetic worker crash" in error_events[0]["error"]
