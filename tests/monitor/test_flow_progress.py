"""Flow-level progress invariants (the ISSUE's accounting contract).

* done <= total at every tick, observed after every tracker mutation;
* the final tick of every task reaches done == total;
* serial and parallel sweeps of the same design produce identical
  final progress records (no timing fields in the accounting).
"""

import os

import pytest

from repro import monitor, telemetry
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRShapeSelector
from repro.db.database import DesignDatabase
from repro.designs import load_benchmark


@pytest.fixture(scope="module")
def aes_clusters():
    design = load_benchmark("aes", use_cache=False)
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=150)
    )
    return design, clustering.members()


def _after_each_mutation(tracker, hook):
    """Call ``hook`` after every ``start`` / ``advance`` / ``set_done``
    / ``complete`` of ``tracker`` — each state a status tick can see."""
    for name in ("start", "advance", "set_done", "complete"):

        def wrapped(*args, _mutate=getattr(tracker, name), **kwargs):
            result = _mutate(*args, **kwargs)
            hook()
            return result

        setattr(tracker, name, wrapped)


def _sweep_with_monitor(design, members, jobs, out_dir):
    """Run a V-P&R sweep under the monitor; returns (records, n_ticks)."""
    telemetry.enable(str(out_dir))
    session = monitor.enable(str(out_dir), interval=60.0)
    ticks = []

    def checked_tick():
        for record in session.progress.records():
            assert 0 <= record["done"] <= record["total"], record
        ticks.append(1)

    _after_each_mutation(session.progress, checked_tick)
    config = VPRConfig(
        min_cluster_instances=50,
        max_vpr_clusters=2,
        placer_iterations=3,
        jobs=jobs,
    )
    VPRShapeSelector(config).select(design, members)
    records = session.progress.records()
    monitor.disable()
    telemetry.disable()
    return records, len(ticks)


class TestSweepProgress:
    def test_serial_sweep_reaches_total(self, aes_clusters, tmp_path):
        design, members = aes_clusters
        records, n_ticks = _sweep_with_monitor(
            design, members, jobs=1, out_dir=tmp_path / "serial"
        )
        assert n_ticks > 0
        items = [r for r in records if r["name"] == "vpr.items"]
        assert len(items) == 1
        assert items[0]["done"] == items[0]["total"] > 0
        assert items[0]["finished"] is True

    def test_serial_and_parallel_records_identical(
        self, aes_clusters, tmp_path
    ):
        """jobs changes wall-clock, never the accounting: the final
        progress records of a serial and a fleet sweep match exactly."""
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = aes_clusters
        serial, _ = _sweep_with_monitor(
            design, members, jobs=1, out_dir=tmp_path / "serial"
        )
        parallel, _ = _sweep_with_monitor(
            design, members, jobs=3, out_dir=tmp_path / "parallel"
        )
        serial_items = [r for r in serial if r["name"] == "vpr.items"]
        parallel_items = [r for r in parallel if r["name"] == "vpr.items"]
        assert serial_items == parallel_items

    def test_failing_fleet_never_rewinds_progress(
        self, aes_clusters, tmp_path, monkeypatch
    ):
        """A fleet that dies after its first chunk hands what it had
        not returned to the sweep's in-process passes: ``vpr.items``
        never counts back and ends at ``total``."""
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = aes_clusters
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        dones = []

        def record_tick():
            for record in session.progress.records():
                if record["name"] == "vpr.items":
                    dones.append(record["done"])

        _after_each_mutation(session.progress, record_tick)

        from repro.core.fanout import FleetExecutor

        class DiesAfterFirstChunk(FleetExecutor):
            def map_chunks(self, payload, chunks, chunk_fn):
                resolved = super().map_chunks(payload, chunks, chunk_fn)
                yield next(resolved)
                raise OSError("fleet died mid-sweep")

        config = VPRConfig(
            min_cluster_instances=50,
            max_vpr_clusters=2,
            placer_iterations=3,
            jobs=2,
        )
        selector = VPRShapeSelector(config)
        selector.framework.executor_factory = lambda: DiesAfterFirstChunk(
            workers=2
        )
        selector.select(design, members)
        items = [
            r for r in session.progress.records() if r["name"] == "vpr.items"
        ]
        monitor.disable()
        telemetry.disable()
        assert items[0]["done"] == items[0]["total"] > 0
        assert dones == sorted(dones)
        assert dones[-1] == items[0]["total"]

    def test_chunked_parallel_records_identical(self, aes_clusters, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = aes_clusters
        serial, _ = _sweep_with_monitor(
            design, members, jobs=1, out_dir=tmp_path / "serial"
        )
        telemetry.enable(str(tmp_path / "chunked"))
        session = monitor.enable(str(tmp_path / "chunked"), interval=60.0)
        config = VPRConfig(
            min_cluster_instances=50,
            max_vpr_clusters=2,
            placer_iterations=3,
            jobs=2,
            chunk_size=3,
        )
        VPRShapeSelector(config).select(design, members)
        chunked = session.progress.records()
        monitor.disable()
        telemetry.disable()
        assert [r for r in serial if r["name"] == "vpr.items"] == [
            r for r in chunked if r["name"] == "vpr.items"
        ]


class TestPlacerAndClusteringProgress:
    def test_gp_progress_tracks_iterations(self, tmp_path):
        from repro.place.placer import GlobalPlacer, PlacerConfig
        from repro.place.problem import PlacementProblem

        design = load_benchmark("aes", use_cache=False)
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        result = GlobalPlacer(
            PlacementProblem(design.arrays(), design.floorplan), PlacerConfig(seed=0)
        ).run()
        records = {r["name"]: r for r in session.progress.records()}
        monitor.disable()
        telemetry.disable()
        gp = records["gp.iters"]
        assert gp["finished"] is True
        # One round per observation (round 0 + `iterations` loop rounds),
        # clamped down from max_iterations+1 by the convergence exit.
        assert gp["done"] == gp["total"] == result.iterations + 1

    def test_virtual_die_placements_invisible(self, tmp_path):
        """The V-P&R engine's muted placements (telemetry=None) must not
        create progress tasks — only flow-level gp/gp.cluster report."""
        from repro.place.placer import GlobalPlacer, PlacerConfig
        from repro.place.problem import PlacementProblem

        design = load_benchmark("aes", use_cache=False)
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        GlobalPlacer(
            PlacementProblem(design.arrays(), design.floorplan),
            PlacerConfig(seed=0, telemetry=None),
        ).run()
        assert session.progress.records() == []
        monitor.disable()
        telemetry.disable()

    def test_clustering_passes_tracked(self, tmp_path):
        from repro.cluster.fc import FirstChoiceConfig, first_choice_clustering
        from repro.db.database import DesignDatabase

        design = load_benchmark("aes", use_cache=False)
        hgraph = DesignDatabase(design).hypergraph
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        first_choice_clustering(
            hgraph, FirstChoiceConfig(target_clusters=20)
        )
        records = {r["name"]: r for r in session.progress.records()}
        monitor.disable()
        telemetry.disable()
        passes = records["cluster.passes"]
        assert passes["finished"] is True
        assert 0 < passes["done"] == passes["total"] <= 12
