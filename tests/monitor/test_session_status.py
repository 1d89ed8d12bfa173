"""Monitor session, sampler and status.json lifecycle tests."""

import json
import os
import threading
import time

import pytest

from repro import monitor, obs, perf, telemetry
from repro.monitor.sampler import ResourceSampler
from repro.monitor.status import (
    STATUS_SCHEMA,
    StatusWriter,
    load_status,
    status_path,
)


class TestResourceSampler:
    def test_sample_records_streams_and_peaks(self):
        observed = []
        sampler = ResourceSampler(
            observe=lambda name, value, t: observed.append((name, value)),
            stage_of=lambda: "vpr",
            interval=60.0,
        )
        sampler.sample()
        names = {name for name, _ in observed}
        assert names == {"monitor.rss", "monitor.cpu"}
        rss = dict(observed)["monitor.rss"]
        assert rss > 0
        assert sampler.stage_peaks()["vpr"] >= rss * 0.5
        resources = sampler.resources()
        assert resources["samples"] == 1
        assert resources["peak_rss_bytes"] >= resources["rss_bytes"] > 0
        assert len(resources["rss_timeline"]) == 1

    def test_stage_attribution_follows_callback(self):
        stage = {"name": None}
        sampler = ResourceSampler(
            observe=lambda *a: None,
            stage_of=lambda: stage["name"],
            interval=60.0,
        )
        sampler.sample()  # no stage active
        stage["name"] = "clustering"
        sampler.sample()
        peaks = sampler.stage_peaks()
        assert list(peaks) == ["clustering"]

    def test_background_thread_samples(self):
        sampler = ResourceSampler(
            observe=lambda *a: None, stage_of=lambda: None, interval=0.01
        )
        sampler.start()
        try:
            deadline = time.time() + 5.0
            while sampler.resources()["samples"] < 3:
                assert time.time() < deadline, "sampler thread not sampling"
                time.sleep(0.01)
        finally:
            sampler.stop()
        assert sampler._thread is None

    def test_timeline_is_bounded(self):
        sampler = ResourceSampler(
            observe=lambda *a: None,
            stage_of=lambda: None,
            interval=60.0,
            timeline_points=5,
        )
        for _ in range(20):
            sampler.sample()
        assert len(sampler.resources()["rss_timeline"]) == 5
        assert sampler.resources()["samples"] == 20

    def test_summary_block(self):
        sampler = ResourceSampler(
            observe=lambda *a: None, stage_of=lambda: "vpr", interval=60.0
        )
        sampler.sample()
        summary = sampler.summary()
        assert summary["samples"] == 1
        assert summary["peak_rss_bytes"] > 0
        assert "vpr" in summary["stage_peak_rss_bytes"]


class TestStatusWriter:
    def test_atomic_document_with_schema(self, tmp_path):
        writer = StatusWriter(
            str(tmp_path), lambda: {"state": "running"}, min_interval=0.0
        )
        assert writer.refresh() is True
        doc = load_status(str(tmp_path))
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["state"] == "running"
        assert doc["updated_unix"] > 0
        # temp+rename discipline leaves no partial files behind
        leftovers = [
            n for n in os.listdir(tmp_path) if n != "status.json"
        ]
        assert leftovers == []

    def test_throttle_coalesces(self, tmp_path):
        writer = StatusWriter(
            str(tmp_path), lambda: {"state": "running"}, min_interval=60.0
        )
        assert writer.refresh() is True
        for _ in range(50):
            assert writer.refresh() is False
        assert writer.writes == 1
        assert writer.refresh(force=True) is True
        assert writer.writes == 2

    def test_concurrent_refresh_never_tears(self, tmp_path):
        """Hammer refresh from threads while reading: every read must
        see a complete, parseable document."""
        writer = StatusWriter(
            str(tmp_path),
            lambda: {"state": "running", "blob": "x" * 4096},
            min_interval=0.0,
        )
        writer.refresh(force=True)
        stop = threading.Event()
        errors = []

        def spin():
            while not stop.is_set():
                writer.refresh(force=True)

        def read():
            while not stop.is_set():
                doc = load_status(str(tmp_path))
                if doc is None or len(doc.get("blob", "")) != 4096:
                    errors.append(doc)

        threads = [threading.Thread(target=spin) for _ in range(2)] + [
            threading.Thread(target=read)
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []

    def test_load_status_missing_or_invalid(self, tmp_path):
        assert load_status(str(tmp_path)) is None
        with open(status_path(str(tmp_path)), "w") as handle:
            handle.write("{not json")
        assert load_status(str(tmp_path)) is None
        with open(status_path(str(tmp_path)), "w") as handle:
            json.dump({"schema": "other/1"}, handle)
        assert load_status(str(tmp_path)) is None


class TestMonitorSession:
    def test_lifecycle_publishes_states(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0, status_interval=0.0)
        doc = load_status(str(tmp_path))
        assert doc["state"] == "running"
        assert doc["pid"] == os.getpid()
        assert doc["resources"]["samples"] >= 1
        monitor.disable()
        doc = load_status(str(tmp_path))
        assert doc["state"] == "done"
        assert not monitor.is_enabled()

    def test_failed_state_with_error(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0, status_interval=0.0)
        monitor.disable(state="failed", error="RuntimeError('boom')")
        doc = load_status(str(tmp_path))
        assert doc["state"] == "failed"
        assert "boom" in doc["error"]

    def test_stage_context_and_peaks(self, tmp_path):
        telemetry.enable(str(tmp_path))
        session = monitor.enable(
            str(tmp_path), interval=60.0, status_interval=0.0
        )
        assert session.current_stage() is None
        with obs.stage("vpr") as outer:
            assert session.current_stage() == "vpr"
            session.sampler.sample()
            with obs.stage("vpr.route"):
                assert session.current_stage() == "vpr.route"
                # The monitor follows two levels; deeper stages are
                # the perf report's and the trace's business.
                with obs.stage("route.global"):
                    assert session.current_stage() == "vpr.route"
            assert session.current_stage() == "vpr"
        assert session.current_stage() is None
        doc = load_status(str(tmp_path))
        assert [s["name"] for s in doc["stages"]] == ["vpr", "vpr.route"]
        stages = {s["name"]: s for s in doc["stages"]}
        assert stages["vpr"]["state"] == "done"
        assert stages["vpr"]["elapsed_s"] == outer.elapsed
        assert stages["vpr"]["peak_rss_bytes"] > 0
        assert "_started" not in stages["vpr"]

    def test_reentrant_stage_pops_innermost(self, tmp_path):
        """Nested stages with the same name unwind innermost-first:
        exiting the inner context must leave the outer one active."""
        telemetry.enable(str(tmp_path))
        session = monitor.enable(
            str(tmp_path), interval=60.0, status_interval=0.0
        )
        with obs.stage("vpr") as outer:
            with obs.stage("vpr") as inner:
                assert obs.session()._stack() == [outer, inner]
            assert session.current_stage() == "vpr"
            assert obs.session()._stack() == [outer]
        assert session.current_stage() is None
        monitor.disable()

    def test_stage_exit_never_deadlocks_against_sampler(self, tmp_path):
        """Regression: stage() exit reads sampler peaks while a sample
        reads the current stage — with inverted lock nesting (either
        callback invoked while the caller's own lock is held) the two
        threads deadlock.  The bare race window is a few bytecodes, so
        hammering alone almost never trips it; widening it with a short
        sleep inside ``stage_of`` makes the inversion deterministic:
        if the sampler still called it under its lock, the stage-exit
        thread would wedge against the sampler within one iteration."""
        telemetry.enable(str(tmp_path))
        session = monitor.enable(
            str(tmp_path), interval=60.0, status_interval=60.0
        )
        inner_stage_of = session.sampler.stage_of

        def slow_stage_of():
            time.sleep(0.002)
            return inner_stage_of()

        session.sampler.stage_of = slow_stage_of
        stop = threading.Event()

        def spin_stages():
            while not stop.is_set():
                with obs.stage("hot"):
                    pass

        def spin_samples():
            while not stop.is_set():
                session.sampler.sample()

        threads = [
            threading.Thread(target=spin_stages, daemon=True),
            threading.Thread(target=spin_samples, daemon=True),
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        stuck = [t.name for t in threads if t.is_alive()]
        if stuck:
            # The wedged threads hold the session/sampler locks, so a
            # normal disable() (and the conftest teardown behind it)
            # would hang too — drop the global session without touching
            # its locks, then fail loudly.
            obs.session().monitor = None
            pytest.fail(f"deadlocked threads: {stuck}")
        monitor.disable()

    def test_stage_peak_perf_counters_on_stop(self, tmp_path):
        perf.enable()
        perf.reset()
        telemetry.enable(str(tmp_path))
        session = monitor.enable(
            str(tmp_path), interval=60.0, status_interval=0.0
        )
        with obs.stage("clustering"):
            session.sampler.sample()
        monitor.disable()
        value = perf.counter_value("monitor.peak_rss.clustering")
        perf.disable()
        assert value > 0

    def test_monitor_streams_reach_telemetry(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0, status_interval=0.0)
        monitor.disable()
        stream = telemetry.stream("monitor.rss")
        assert stream is not None
        assert len(stream.values) >= 2  # opening + closing sample

    def test_progress_ticks_refresh_status(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0, status_interval=0.0)
        obs.start_task("loop", 3, unit="steps")
        obs.advance("loop", 2)
        doc = load_status(str(tmp_path))
        task = doc["progress"][0]
        assert (task["name"], task["done"], task["total"]) == ("loop", 2, 3)
        obs.complete("loop")
        doc = load_status(str(tmp_path))
        assert doc["progress"][0]["finished"] is True
        assert doc["progress"][0]["total"] == 2
        monitor.disable()

    def test_summary_block(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0, status_interval=0.0)
        obs.start_task("loop", 2)
        obs.advance("loop", 2)
        obs.complete("loop")
        summary = monitor.summary()
        monitor.disable()
        assert summary["samples"] >= 1
        assert summary["peak_rss_bytes"] > 0
        assert summary["progress"] == [
            {
                "name": "loop",
                "unit": "items",
                "total": 2,
                "done": 2,
                "finished": True,
            }
        ]
        assert monitor.summary() is None  # disabled

    def test_hooks_are_noops_while_disabled(self, tmp_path):
        assert monitor.get_monitor() is None
        obs.start_task("x", 5)
        obs.advance("x")
        obs.set_done("x", 1)
        obs.complete("x")
        obs.set_meta(design="aes")
        assert obs.worker_descriptor()["heartbeats"] is None
        with obs.stage("vpr"):
            pass
        assert not (tmp_path / "status.json").exists()
