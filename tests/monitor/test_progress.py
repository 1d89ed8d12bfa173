"""Unit tests for the progress accounting layer (ProgressTask/Tracker)."""

import pytest

from repro.monitor.progress import ProgressTask, ProgressTracker


class TestProgressTask:
    def test_advance_clamps_to_total(self):
        task = ProgressTask("t", total=5)
        task.advance(3)
        assert task.done == 3
        task.advance(100)
        assert task.done == 5

    def test_done_never_exceeds_total_at_any_tick(self):
        task = ProgressTask("t", total=7)
        for _ in range(20):
            task.advance(1)
            assert 0 <= task.done <= task.total

    def test_set_done_is_monotone(self):
        task = ProgressTask("t", total=10)
        task.set_done(4)
        assert task.done == 4
        task.set_done(2)  # never decreases
        assert task.done == 4
        task.set_done(11)  # clamped
        assert task.done == 10

    def test_complete_clamps_total_on_early_exit(self):
        task = ProgressTask("t", total=44)
        task.advance(14)
        task.complete()
        assert task.total == task.done == 14
        assert task.is_finished

    def test_record_is_deterministic(self):
        """The accounting record carries no timing — two tasks that did
        the same work serialise identically regardless of pace."""
        a = ProgressTask("t", total=5, unit="items")
        b = ProgressTask("t", total=5, unit="items")
        for task in (a, b):
            task.advance(5)
            task.complete()
        assert a.record() == b.record()
        assert set(a.record()) == {"name", "unit", "total", "done", "finished"}

    def test_snapshot_adds_pace(self):
        task = ProgressTask("t", total=4)
        task.advance(2)
        snap = task.snapshot()
        assert snap["done"] == 2
        assert snap["elapsed_s"] >= 0
        assert snap["rate_per_s"] > 0
        assert snap["eta_s"] >= 0

    def test_rate_none_before_any_progress(self):
        task = ProgressTask("t", total=4)
        assert task.rate is None
        assert task.eta_seconds is None

    def test_eta_zero_when_finished(self):
        task = ProgressTask("t", total=2)
        task.advance(2)
        task.complete()
        assert task.eta_seconds == 0.0

    def test_zero_total_loop(self):
        task = ProgressTask("t", total=0)
        task.advance(3)
        assert task.done == 0
        task.complete()
        assert task.record() == {
            "name": "t",
            "unit": "items",
            "total": 0,
            "done": 0,
            "finished": True,
        }


class TestProgressTracker:
    def test_unknown_task_mutations_are_noops(self):
        tracker = ProgressTracker()
        tracker.advance("nope")
        tracker.set_done("nope", 3)
        tracker.complete("nope")
        assert tracker.records() == []

    def test_invariant_holds_at_every_tick(self):
        """done <= total observed after every mutation — the exact view
        a status.json tick serialises."""
        tracker = ProgressTracker()

        def check():
            for record in tracker.records():
                assert 0 <= record["done"] <= record["total"]

        tracker.start("a", 5)
        check()
        tracker.start("b", 2)
        check()
        for _ in range(8):
            tracker.advance("a")
            check()
            tracker.advance("b")
            check()
        tracker.complete("a")
        check()
        tracker.complete("b")
        check()
        records = {r["name"]: r for r in tracker.records()}
        assert records["a"]["done"] == records["a"]["total"] == 5
        assert records["b"]["done"] == records["b"]["total"] == 2

    def test_restart_replaces_task(self):
        tracker = ProgressTracker()
        tracker.start("t", 5)
        tracker.advance("t", 5)
        tracker.start("t", 3)
        assert tracker.get("t").done == 0
        assert tracker.get("t").total == 3

    def test_records_preserve_start_order(self):
        tracker = ProgressTracker()
        for name in ("c", "a", "b"):
            tracker.start(name, 1)
        assert [r["name"] for r in tracker.records()] == ["c", "a", "b"]
