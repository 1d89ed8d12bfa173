"""Span tests: nesting, disabled path, worker merge, span_tree."""

import pytest

from repro import obs, telemetry
from repro.telemetry.trace import Tracer, span_tree


def _filled(*names, epoch=0.0):
    """A tracer holding one root span per name plus a child of the
    first (ids allocated from 0, like a worker's)."""
    tracer = Tracer(epoch=epoch)
    ids = [tracer.alloc_id() for _ in names]
    for span_id, name in zip(ids, names):
        parent = ids[0] if span_id != ids[0] else None
        tracer.add(span_id, parent, name, 1.0, 0.5, {})
    return tracer


class TestSpans:
    def test_nesting_records_parent_links(self):
        telemetry.enable()
        with obs.stage("outer", kind="test"):
            with obs.stage("inner"):
                pass
            with obs.stage("inner2"):
                pass
        records = telemetry.get_session().tracer.export()
        assert [r["name"] for r in records] == ["inner", "inner2", "outer"]
        outer = records[-1]
        assert outer["parent"] is None
        assert outer["attrs"] == {"kind": "test"}
        for inner in records[:2]:
            assert inner["parent"] == outer["id"]
            assert inner["dur"] >= 0.0
            assert inner["t0"] >= outer["t0"]

    def test_exception_recorded_and_stack_unwound(self):
        telemetry.enable()
        with pytest.raises(ValueError):
            with obs.stage("boom"):
                raise ValueError("nope")
        session = telemetry.get_session()
        record = session.tracer.export()[0]
        assert record["attrs"]["error"] == "ValueError"
        assert session._stack() == []

    def test_disabled_session_returns_shared_null_span(self):
        """While telemetry is off a stage allocates no span id and
        stores no record."""
        assert not telemetry.is_enabled()
        with obs.stage("anything", x=1) as stage:
            assert telemetry.get_session()._stack() == []
        assert stage.elapsed > 0.0
        assert len(telemetry.get_session().tracer) == 0

    def test_export_is_a_deep_copy(self):
        tracer = Tracer()
        tracer.add(tracer.alloc_id(), None, "a", 0.0, 0.1, {"n": 1})
        exported = tracer.export()
        exported[0]["attrs"]["n"] = 999
        assert tracer.export()[0]["attrs"]["n"] == 1


class TestMerge:
    def test_worker_records_reparented_with_fresh_ids(self):
        payload = _filled("vpr.candidate", "place.global").export()

        telemetry.enable()
        with obs.stage("vpr.sweep"):
            with obs.stage("collect"):
                obs.merge_worker({"spans": payload})
        exported = telemetry.get_session().tracer.export()
        records = {r["name"]: r for r in exported}
        collect = records["collect"]
        candidate = records["vpr.candidate"]
        place = records["place.global"]
        # Worker roots hang under the parent's active span; internal
        # links survive the id remap.
        assert candidate["parent"] == collect["id"]
        assert place["parent"] == candidate["id"]
        ids = [r["id"] for r in exported]
        assert len(ids) == len(set(ids))

    def test_merge_id_collisions_resolved(self):
        # Both tracers allocate ids starting at 0.
        a = _filled("a0")
        b = _filled("b0")
        a.merge(b.export())
        ids = [r["id"] for r in a.export()]
        assert len(ids) == len(set(ids)) == 2

    def test_merge_extra_attrs(self):
        a = Tracer()
        b = _filled("w")
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
