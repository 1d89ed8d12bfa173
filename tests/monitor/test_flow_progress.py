"""Flow-level progress invariants (the ISSUE's accounting contract).

* done <= total at every tick, observed from inside the tick callback;
* the final tick of every task reaches done == total;
* serial and parallel sweeps of the same design produce identical
  final progress records (no timing fields in the accounting).
"""

import os

import pytest

from repro import monitor, obs, telemetry
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


def _sweep_with_monitor(design, members, jobs, out_dir):
    """Run a V-P&R sweep under the monitor; returns (records, n_ticks)."""
    telemetry.enable(str(out_dir))
    session = monitor.enable(str(out_dir), interval=60.0)
    ticks = []
    refresh = session.progress.on_tick

    def checked_tick():
        for record in session.progress.records():
            assert 0 <= record["done"] <= record["total"], record
        ticks.append(1)
        if refresh is not None:
            refresh()

    session.progress.on_tick = checked_tick
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

    def test_serial_fallback_resets_progress(
        self, aes_clusters, tmp_path, monkeypatch
    ):
        """An OSError fallback to the inline executor restarts the task:
        items the failed fleet attempt already advanced (checkpoint
        serves, resolved chunks) must not be counted a second time."""
        design, members = aes_clusters
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        dones = []
        refresh = session.progress.on_tick

        def record_tick():
            for record in session.progress.records():
                if record["name"] == "vpr.items":
                    dones.append(record["done"])
            if refresh is not None:
                refresh()

        session.progress.on_tick = record_tick

        from repro.core.fanout import SweepExecutor

        class BrokenFleet(SweepExecutor):
            def width(self):
                return 2

            def map_chunks(self, state, chunks, chunk_fn):
                obs.advance("vpr.items", 2)  # e.g. resolved chunks
                raise OSError("fleet unavailable")
                yield  # pragma: no cover - makes this a generator

        config = VPRConfig(
            min_cluster_instances=50,
            max_vpr_clusters=2,
            placer_iterations=3,
            jobs=2,
        )
        selector = VPRShapeSelector(config)
        selector.framework.executor_factory = BrokenFleet
        selector.select(design, members)
        items = [
            r for r in session.progress.records() if r["name"] == "vpr.items"
        ]
        monitor.disable()
        telemetry.disable()
        assert items[0]["done"] == items[0]["total"] > 0
        # The restart is visible as done returning to 0 after the failed
        # fleet attempt's advance — the inline run counts from scratch.
        first_advanced = next(i for i, d in enumerate(dones) if d > 0)
        assert 0 in dones[first_advanced:]

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
            PlacementProblem(design), PlacerConfig(seed=0)
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
            PlacementProblem(design), PlacerConfig(seed=0, telemetry=None)
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
