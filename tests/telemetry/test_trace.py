"""Tracer unit tests: nesting, null objects, worker merge, span_tree."""

import pytest

from repro import telemetry
from repro.telemetry.trace import NULL_SPAN, Tracer, span_tree


class TestSpans:
    def test_nesting_records_parent_links(self):
        tracer = Tracer(epoch=0.0)
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        records = tracer.export()
        assert [r["name"] for r in records] == ["inner", "inner2", "outer"]
        outer = records[-1]
        assert outer["parent"] is None
        assert outer["attrs"] == {"kind": "test"}
        for inner in records[:2]:
            assert inner["parent"] == outer["id"]
            assert inner["dur"] >= 0.0
            assert inner["t0"] >= outer["t0"]

    def test_set_attr_mid_span(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set_attr("items", 7)
        assert tracer.export()[0]["attrs"] == {"items": 7}

    def test_exception_recorded_and_stack_unwound(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        record = tracer.export()[0]
        assert record["attrs"]["error"] == "ValueError"
        assert tracer.current_span_id() is None

    def test_disabled_session_returns_shared_null_span(self):
        assert not telemetry.is_enabled()
        span = telemetry.span("anything", x=1)
        assert span is NULL_SPAN
        with span:
            span.set_attr("ignored", True)
        assert len(telemetry.get_session().tracer) == 0

    def test_export_is_a_deep_copy(self):
        tracer = Tracer()
        with tracer.span("a", n=1):
            pass
        exported = tracer.export()
        exported[0]["attrs"]["n"] = 999
        assert tracer.export()[0]["attrs"]["n"] == 1


class TestMerge:
    def test_worker_records_reparented_with_fresh_ids(self):
        parent = Tracer(epoch=0.0)
        worker = Tracer(epoch=0.0)
        with worker.span("vpr.candidate", ar=1.5):
            with worker.span("place.global"):
                pass
        payload = worker.export()

        with parent.span("vpr.sweep"):
            with parent.span("collect"):
                parent.merge(payload, parent_id=parent.current_span_id())
        records = {r["name"]: r for r in parent.export()}
        collect = records["collect"]
        candidate = records["vpr.candidate"]
        place = records["place.global"]
        # Worker roots hang under the parent's active span; internal
        # links survive the id remap.
        assert candidate["parent"] == collect["id"]
        assert place["parent"] == candidate["id"]
        ids = [r["id"] for r in parent.export()]
        assert len(ids) == len(set(ids))

    def test_merge_id_collisions_resolved(self):
        # Both tracers allocate ids starting at 0.
        a = Tracer()
        b = Tracer()
        with a.span("a0"):
            pass
        with b.span("b0"):
            pass
        a.merge(b.export())
        ids = [r["id"] for r in a.export()]
        assert len(ids) == len(set(ids)) == 2

    def test_merge_extra_attrs(self):
        a = Tracer()
        b = Tracer()
        with b.span("w"):
            pass
        a.merge(b.export(), extra_attrs={"worker": 3})
        assert a.export()[0]["attrs"]["worker"] == 3


class TestSpanTree:
    def test_forest_ordered_by_start_time(self):
        records = [
            {"id": 0, "parent": None, "name": "r1", "t0": 1.0, "dur": 1.0, "attrs": {}},
            {"id": 1, "parent": None, "name": "r0", "t0": 0.0, "dur": 1.0, "attrs": {}},
            {"id": 2, "parent": 0, "name": "c1", "t0": 1.6, "dur": 0.1, "attrs": {}},
            {"id": 3, "parent": 0, "name": "c0", "t0": 1.2, "dur": 0.1, "attrs": {}},
        ]
        forest = span_tree(records)
        assert [n["name"] for n in forest] == ["r0", "r1"]
        assert [n["name"] for n in forest[1]["children"]] == ["c0", "c1"]

    def test_missing_parent_surfaces_as_root(self):
        records = [
            {"id": 5, "parent": 99, "name": "orphan", "t0": 0.0, "dur": 0.1, "attrs": {}}
        ]
        assert [n["name"] for n in span_tree(records)] == ["orphan"]


class TestTracedDecorator:
    def test_traced_checks_enabled_per_call(self):
        @telemetry.traced("unit.work", tag="x")
        def work():
            return 42

        assert work() == 42  # disabled: no record
        assert len(telemetry.get_session().tracer) == 0

        telemetry.enable()
        assert work() == 42
        records = telemetry.get_session().tracer.export()
        assert records[0]["name"] == "unit.work"
        assert records[0]["attrs"] == {"tag": "x"}
