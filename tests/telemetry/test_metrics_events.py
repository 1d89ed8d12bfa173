"""Metric streams and the structured event log."""

import json

from repro import obs, telemetry
from repro.telemetry.events import EVENT_SCHEMA, EventLog
from repro.telemetry.metrics import MetricRegistry


class TestMetricStreams:
    def test_auto_step_and_explicit_step(self):
        reg = MetricRegistry()
        reg.observe("gp.hpwl", 100.0)
        reg.observe("gp.hpwl", 90.0)
        reg.observe("sta.wns", -0.1, step=5)
        stream = reg.stream("gp.hpwl")
        assert stream.steps == [0.0, 1.0]
        assert stream.values == [100.0, 90.0]
        assert stream.final == 90.0
        assert reg.stream("sta.wns").steps == [5.0]
        assert reg.stream("missing") is None

    def test_stream_level_attrs_last_write_wins(self):
        reg = MetricRegistry()
        reg.observe("x", 1.0, unit="um")
        reg.observe("x", 2.0, unit="nm")
        assert reg.stream("x").attrs == {"unit": "nm"}

    def test_merge_restepping_of_auto_streams(self):
        parent = MetricRegistry()
        parent.observe("vpr.total_cost", 0.5)
        parent.observe("vpr.total_cost", 0.4)
        worker = MetricRegistry()
        worker.observe("vpr.total_cost", 0.3)
        worker.observe("vpr.total_cost", 0.2)
        parent.merge(worker.export())
        merged = parent.stream("vpr.total_cost")
        # Auto-stepped worker points continue the parent's step axis.
        assert merged.steps == [0.0, 1.0, 2.0, 3.0]
        assert merged.values == [0.5, 0.4, 0.3, 0.2]

    def test_merge_keeps_explicit_steps(self):
        parent = MetricRegistry()
        worker = MetricRegistry()
        worker.observe("gp.hpwl", 10.0, step=3)
        worker.observe("gp.hpwl", 9.0, step=4)
        parent.merge(worker.export())
        assert parent.stream("gp.hpwl").steps == [3.0, 4.0]

    def test_disabled_observe_records_nothing(self):
        assert not telemetry.is_enabled()
        obs.observe("gp.hpwl", 1.0)
        assert telemetry.stream("gp.hpwl") is None


class TestEventLog:
    def test_schema_seq_and_fields(self):
        log = EventLog(epoch=0.0)
        a = log.emit("flow.start", design="aes")
        b = log.emit("flow.done", hpwl=12.5)
        assert a["schema"] == EVENT_SCHEMA
        assert (a["seq"], b["seq"]) == (0, 1)
        assert a["design"] == "aes"
        assert b["t"] >= a["t"] >= 0.0

    def test_streams_jsonl_to_disk(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(epoch=0.0, path=str(path))
        log.emit("one", n=1)
        log.emit("two", n=2)
        log.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["type"] for e in lines] == ["one", "two"]
        assert all(e["schema"] == EVENT_SCHEMA for e in lines)

    def test_merge_resequences_and_keeps_worker_time(self):
        parent = EventLog(epoch=0.0)
        parent.emit("parent.event")
        worker = EventLog(epoch=0.0)
        worker.emit("worker.thing", value=7)
        exported = worker.export()
        parent.merge(exported, worker_item="3:1")
        merged = parent.export()[-1]
        assert merged["type"] == "worker.thing"
        assert merged["seq"] == 1  # re-sequenced in the parent log
        assert merged["value"] == 7
        assert merged["worker_item"] == "3:1"
        assert merged["t"] == exported[0]["t"]  # worker timestamp kept

    def test_session_event_disabled_noop(self):
        obs.event("ignored", x=1)
        assert len(telemetry.get_session().events) == 0


class TestSessionRoundTrip:
    def test_worker_snapshot_and_merge(self):
        telemetry.enable()
        # Simulate the worker side on the same process: record, export.
        with obs.stage("vpr.candidate", ar=2.0):
            obs.observe("vpr.total_cost", 0.25)
        obs.event("worker.note", detail="hi")
        payload = obs.worker_payload()
        session = telemetry.get_session()
        assert len(session.tracer) == 0  # snapshot clears
        assert len(session.events) == 0

        with obs.stage("vpr.sweep"):
            obs.merge_worker(payload)
        names = {r["name"] for r in session.tracer.export()}
        assert names == {"vpr.candidate", "vpr.sweep"}
        assert telemetry.stream("vpr.total_cost").final == 0.25
        assert session.events.export()[0]["type"] == "worker.note"

    def test_worker_snapshot_none_when_disabled(self):
        assert obs.worker_payload() is None
        obs.merge_worker(None)  # must not raise
