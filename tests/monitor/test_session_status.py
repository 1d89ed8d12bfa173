"""Monitor session, sampler and status.json lifecycle tests."""

import json
import mmap
import os
import threading
import time

import pytest

from repro import monitor, obs, perf, telemetry
from repro.monitor.sampler import TIMELINE_POINTS, ResourceSampler
from repro.monitor.status import (
    STATUS_SCHEMA,
    load_status,
    status_path,
    write_status,
)


class TestResourceSampler:
    def test_sample_records_streams_and_peaks(self):
        observed = []
        sampler = ResourceSampler(
            observe=lambda name, value, t: observed.append((name, value))
        )
        sampler.sample("vpr")
        names = {name for name, _ in observed}
        assert names == {"monitor.rss", "monitor.cpu"}
        rss = dict(observed)["monitor.rss"]
        assert rss > 0
        assert sampler.stage_peaks()["vpr"] >= rss * 0.5
        resources = sampler.resources()
        assert resources["samples"] == 1
        assert resources["peak_rss_bytes"] >= resources["rss_bytes"] > 0
        assert len(resources["rss_timeline"]) == 1

    def test_stage_attribution_follows_argument(self):
        sampler = ResourceSampler(observe=lambda *a: None)
        sampler.sample(None)  # no stage active
        sampler.sample("clustering")
        peaks = sampler.stage_peaks()
        assert list(peaks) == ["clustering"]

    def test_timeline_is_bounded(self):
        sampler = ResourceSampler(observe=lambda *a: None)
        for _ in range(TIMELINE_POINTS + 20):
            sampler.sample(None)
        assert len(sampler.resources()["rss_timeline"]) == TIMELINE_POINTS
        assert sampler.resources()["samples"] == TIMELINE_POINTS + 20

    def test_summary_block(self):
        sampler = ResourceSampler(observe=lambda *a: None)
        sampler.sample("vpr")
        summary = sampler.summary()
        assert summary["samples"] == 1
        assert summary["peak_rss_bytes"] > 0
        assert "vpr" in summary["stage_peak_rss_bytes"]
        assert summary["system_s"] >= 0.0
        assert summary["minor_faults"] >= 0

    def test_kernel_totals_count_from_the_sampler_start(self):
        sampler = ResourceSampler(observe=lambda *a: None)
        assert sampler.summary()["minor_faults"] == 0
        with mmap.mmap(-1, 16 << 20) as fresh:  # never from the heap
            fresh[:: 1 << 12] = b"x" * (1 << 12)
        sampler.sample(None)
        # At least one fault per 2 MiB, even on transparent huge pages.
        assert sampler.summary()["minor_faults"] >= 8
        assert isinstance(sampler.summary()["system_s"], float)


class TestStatusWriter:
    def test_atomic_document_with_schema(self, tmp_path):
        write_status(str(tmp_path), {"state": "running"})
        doc = load_status(str(tmp_path))
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["state"] == "running"
        assert doc["updated_unix"] > 0
        # temp+rename discipline leaves no partial files behind
        leftovers = [
            n for n in os.listdir(tmp_path) if n != "status.json"
        ]
        assert leftovers == []

    def test_concurrent_refresh_never_tears(self, tmp_path):
        """Hammer writes from threads while reading: every read must
        see a complete, parseable document."""
        doc = {"state": "running", "blob": "x" * 4096}
        write_status(str(tmp_path), doc)
        stop = threading.Event()
        errors = []

        def spin():
            while not stop.is_set():
                write_status(str(tmp_path), doc)

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
    def test_background_thread_samples(self, tmp_path):
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=0.01)
        deadline = time.time() + 5.0
        while session.summary()["samples"] < 3:
            assert time.time() < deadline, "monitor thread not ticking"
            time.sleep(0.01)
        monitor.disable()
        assert session._thread is None
        assert load_status(str(tmp_path))["state"] == "done"

    def test_one_lock_one_writer(self, tmp_path):
        """Recording calls touch memory only: with the thread idle, a
        run of stage edges and progress writes just the start and stop
        documents — under the session's one lock."""
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        lock_type = type(threading.Lock())

        def locks(obj):
            return [v for v in vars(obj).values() if isinstance(v, lock_type)]

        assert len(locks(session)) == 1
        assert locks(session.sampler) == locks(session.progress) == []
        obs.start_task("loop", 1000)
        for _ in range(1000):
            with obs.stage("edge"):
                obs.advance("loop")
        monitor.disable()
        assert session.summary()["status_writes"] == 2
        assert load_status(str(tmp_path))["progress"][0]["done"] == 1000

    def test_lifecycle_publishes_states(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0)
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
        monitor.enable(str(tmp_path), interval=60.0)
        monitor.disable(state="failed", error="RuntimeError('boom')")
        doc = load_status(str(tmp_path))
        assert doc["state"] == "failed"
        assert "boom" in doc["error"]

    def test_stage_context_and_peaks(self, tmp_path):
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        assert session.current_stage() is None
        with obs.stage("vpr") as outer:
            assert session.current_stage() == "vpr"
            session.tick()
            with obs.stage("vpr.route"):
                assert session.current_stage() == "vpr.route"
                # The monitor follows two levels; deeper stages are
                # the perf report's and the trace's business.
                with obs.stage("route.global"):
                    assert session.current_stage() == "vpr.route"
            assert session.current_stage() == "vpr"
        assert session.current_stage() is None
        session.tick()
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
        session = monitor.enable(str(tmp_path), interval=60.0)
        with obs.stage("vpr") as outer:
            with obs.stage("vpr") as inner:
                assert obs.session()._stack() == [outer, inner]
            assert session.current_stage() == "vpr"
            assert obs.session()._stack() == [outer]
        assert session.current_stage() is None
        monitor.disable()

    def test_stage_exit_never_deadlocks_against_sampler(self, tmp_path):
        """Regression: stage edges race the monitor's ticks.  A stage
        exit reads the sampler's peaks while a tick samples under the
        current stage; when sampler and session each had a lock, the
        two nested them in opposite orders and could deadlock.  Both
        now take the session's one lock, so neither can wedge."""
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        stop = threading.Event()

        def spin_stages():
            while not stop.is_set():
                with obs.stage("hot"):
                    pass

        def spin_samples():
            while not stop.is_set():
                session.tick()

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
            # The wedged threads hold the session lock, so a
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
        session = monitor.enable(str(tmp_path), interval=60.0)
        with obs.stage("clustering"):
            session.tick()
        monitor.disable()
        value = perf.counter_value("monitor.peak_rss.clustering")
        perf.disable()
        assert value > 0

    def test_monitor_streams_reach_telemetry(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0)
        monitor.disable()
        stream = telemetry.stream("monitor.rss")
        assert stream is not None
        assert len(stream.values) >= 2  # opening + closing sample

    def test_progress_ticks_refresh_status(self, tmp_path):
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        obs.start_task("loop", 3, unit="steps")
        obs.advance("loop", 2)
        session.tick()
        doc = load_status(str(tmp_path))
        task = doc["progress"][0]
        assert (task["name"], task["done"], task["total"]) == ("loop", 2, 3)
        obs.complete("loop")
        session.tick()
        doc = load_status(str(tmp_path))
        assert doc["progress"][0]["finished"] is True
        assert doc["progress"][0]["total"] == 2
        monitor.disable()

    def test_summary_block(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0)
        obs.start_task("loop", 2)
        obs.advance("loop", 2)
        obs.complete("loop")
        summary = monitor.summary()
        monitor.disable()
        assert summary["samples"] >= 1
        assert summary["peak_rss_bytes"] > 0
        assert summary["system_s"] >= 0.0
        assert summary["minor_faults"] >= 0
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
        obs.worker_beat("host:1", "start", pid=1, host="host")
        with obs.stage("vpr"):
            pass
        assert not (tmp_path / "status.json").exists()


class TestWorkerBeats:
    def test_noop_while_monitor_off(self, tmp_path):
        obs.worker_beat("host:1", "start", pid=1, host="host")
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0)
        monitor.disable()
        assert load_status(str(tmp_path))["workers"] == []

    def test_last_beat_per_label_wins(self, tmp_path):
        telemetry.enable(str(tmp_path))
        monitor.enable(str(tmp_path), interval=60.0)
        obs.worker_beat("b:2", "connect", pid=2, host="b")
        obs.worker_beat("a:1", "connect", pid=1, host="a")
        obs.worker_beat("a:1", "dispatch", pid=1, host="a", chunk=3)
        obs.worker_beat("a:1", "start", pid=1, host="a", item="0/1")
        monitor.disable()
        workers = load_status(str(tmp_path))["workers"]
        assert [(w["host"], w["pid"], w["phase"]) for w in workers] == [
            ("a", 1, "start"),
            ("b", 2, "connect"),
        ]
        assert workers[0]["item"] == "0/1"
        assert "chunk" not in workers[0]  # a beat replaces, never merges

    def test_age_computed_at_publish_time(self, tmp_path):
        telemetry.enable(str(tmp_path))
        session = monitor.enable(str(tmp_path), interval=60.0)
        obs.worker_beat("a:1", "start", pid=1, host="a")
        session.tick()
        first = load_status(str(tmp_path))["workers"][0]
        time.sleep(0.05)
        session.tick()
        second = load_status(str(tmp_path))["workers"][0]
        monitor.disable()
        assert second["t"] == first["t"]
        assert second["age_s"] >= first["age_s"] + 0.04
