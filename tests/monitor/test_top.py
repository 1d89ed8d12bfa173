"""Rendering tests for the `repro top` viewer."""

import io
import json

from repro.ioutil import atomic_write_bytes
from repro.monitor.status import STATUS_SCHEMA, status_path
from repro.monitor.top import (
    HANG_AFTER_S,
    _bar,
    _fmt_bytes,
    _fmt_duration,
    render,
    render_dir,
    run_top,
    sparkline,
)


def _status(**overrides):
    base = {
        "schema": STATUS_SCHEMA,
        "state": "running",
        "pid": 4242,
        "elapsed_s": 12.5,
        "meta": {"design": "aes", "jobs": 2},
        "stages": [
            {"name": "clustering", "state": "done", "elapsed_s": 1.2,
             "peak_rss_bytes": 50 * 1024 * 1024},
            {"name": "vpr", "state": "running", "elapsed_s": 3.4},
        ],
        "progress": [
            {"name": "vpr.items", "unit": "items", "total": 20, "done": 5,
             "finished": False, "rate_per_s": 2.5, "eta_s": 6.0},
            {"name": "cluster.passes", "unit": "passes", "total": 4,
             "done": 4, "finished": True},
        ],
        "resources": {
            "rss_bytes": 100 * 1024 * 1024,
            "peak_rss_bytes": 120 * 1024 * 1024,
            "cpu_percent": 87.0,
            "rss_timeline": [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]],
            "cpu_timeline": [[0.0, 10.0]],
            "samples": 3,
        },
        "workers": [
            {"pid": 100, "phase": "done", "item": "c0/1", "age_s": 0.5},
            {"pid": 99, "phase": "start", "item": "c1/0",
             "age_s": HANG_AFTER_S + 5.0},
        ],
    }
    base.update(overrides)
    return base


class TestRender:
    def test_full_frame(self):
        frame = render(_status())
        assert "running pid=4242" in frame
        assert "design=aes" in frame
        assert "✔ clustering" in frame
        assert "▶ vpr" in frame
        assert "peak 50.0MiB" in frame
        assert "vpr.items" in frame
        assert "5/20 (25%)" in frame
        assert "2.5/s" in frame
        assert "eta 6.0s" in frame
        assert "4/4 (100%)" in frame and "done" in frame
        assert "rss: 100.0MiB (peak 120.0MiB)" in frame
        assert "cpu: 87%" in frame

    def test_hung_worker_flagged(self):
        frame = render(_status())
        lines = frame.splitlines()
        hung = [l for l in lines if "possibly hung" in l]
        assert len(hung) == 1
        assert "pid 99" in hung[0]
        # workers sorted by pid: 99 before 100
        assert frame.index("pid 99") < frame.index("pid 100")

    def test_fresh_start_worker_not_flagged(self):
        status = _status(workers=[
            {"pid": 7, "phase": "start", "item": "c0/0", "age_s": 1.0}
        ])
        assert "possibly hung" not in render(status)

    def test_error_line(self):
        status = _status(state="failed", error="RuntimeError('boom')")
        frame = render(status)
        assert "failed" in frame
        assert "error: RuntimeError('boom')" in frame

    def test_events_tail(self):
        events = [
            {"schema": "e/1", "seq": 3, "t": 1.25,
             "type": "vpr.shape_selected", "cluster": 2},
        ]
        frame = render(_status(), events)
        assert "events:" in frame
        assert "vpr.shape_selected" in frame
        assert "cluster=2" in frame

    def test_minimal_status(self):
        frame = render({"state": "running", "pid": 1})
        assert "running" in frame
        assert "stages:" not in frame
        assert "progress:" not in frame
        assert "workers:" not in frame


class TestFormatters:
    def test_fmt_bytes(self):
        assert _fmt_bytes(512) == "512B"
        assert _fmt_bytes(2048) == "2.0KiB"
        assert _fmt_bytes(3 * 1024**3) == "3.0GiB"

    def test_fmt_duration(self):
        assert _fmt_duration(None) == "--"
        assert _fmt_duration(5.25) == "5.2s"
        assert _fmt_duration(125) == "2m05s"
        assert _fmt_duration(3725) == "1h02m"

    def test_bar_bounds(self):
        assert _bar(0, 10).count("█") == 0
        assert _bar(10, 10).count("░") == 0
        assert _bar(5, 0) == "[" + "░" * 28 + "]"
        assert _bar(15, 10).count("█") == 28  # clamped past total


class TestSparkline:
    def test_shape_and_window(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""
        assert len(sparkline(list(range(200)), width=10)) == 10

    def test_flat_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"


class TestRunTop:
    def test_once_without_status_exits_1(self, tmp_path):
        out = io.StringIO()
        assert run_top(str(tmp_path), once=True, out=out) == 1
        assert "no status.json" in out.getvalue()

    def test_once_with_status_exits_0(self, tmp_path):
        payload = json.dumps(_status()).encode()
        atomic_write_bytes(status_path(str(tmp_path)), payload, durable=False)
        out = io.StringIO()
        assert run_top(str(tmp_path), once=True, out=out) == 0
        assert "running pid=4242" in out.getvalue()

    def test_loop_exits_when_run_finishes(self, tmp_path):
        payload = json.dumps(_status(state="done")).encode()
        atomic_write_bytes(status_path(str(tmp_path)), payload, durable=False)
        out = io.StringIO()
        assert run_top(str(tmp_path), once=False, interval=0.05, out=out) == 0

    def test_loop_timeout_without_status_exits_1(self, tmp_path):
        out = io.StringIO()
        rc = run_top(str(tmp_path), once=False, interval=0.05, timeout=0.2,
                     out=out)
        assert rc == 1

    def test_loop_without_status_announces_waiting_once(self, tmp_path):
        out = io.StringIO()
        run_top(str(tmp_path), once=False, interval=0.05, timeout=0.3,
                out=out)
        text = out.getvalue()
        assert "waiting for status.json" in text
        assert text.count("waiting for status.json") == 1  # one-time notice

    def test_render_dir_missing(self, tmp_path):
        assert render_dir(str(tmp_path)) is None


class TestRemoteWorkers:
    """Fleet workers in the pane: host:pid labels, chunk-in-flight,
    and the deadline-tightened silence flag (relayed beats carry the
    remote identity and the dispatched chunk's budget)."""

    def test_remote_worker_labelled_host_pid(self):
        status = _status(workers=[
            {"pid": 41, "host": "rack7", "phase": "item",
             "item": "c0/3", "chunk": 2, "age_s": 1.0},
        ])
        frame = render(status)
        assert "rack7:41" in frame
        assert "chunk=2" in frame
        assert "item=c0/3" in frame
        assert "pid 41" not in frame

    def test_local_worker_keeps_pid_label(self):
        status = _status(workers=[
            {"pid": 42, "phase": "item", "item": "c0/0", "age_s": 0.2},
        ])
        frame = render(status)
        assert "pid 42" in frame

    def test_remote_sorted_by_host_then_pid(self):
        status = _status(workers=[
            {"pid": 9, "host": "rackB", "phase": "item", "age_s": 0.1},
            {"pid": 200, "host": "rackA", "phase": "item", "age_s": 0.1},
            {"pid": 5, "host": "rackA", "phase": "item", "age_s": 0.1},
        ])
        frame = render(status)
        assert (
            frame.index("rackA:5")
            < frame.index("rackA:200")
            < frame.index("rackB:9")
        )

    def test_deadline_tightens_silence_threshold(self):
        # Quiet for 9s against a 10s chunk budget: below the global
        # hang threshold, but past 80% of the chunk's deadline — the
        # flag must show before the parent drops the worker.
        assert 9.0 < HANG_AFTER_S
        status = _status(workers=[
            {"pid": 8, "host": "rack1", "phase": "dispatch", "chunk": 0,
             "deadline_s": 10.0, "age_s": 9.0},
        ])
        assert "possibly hung" in render(status)

    def test_within_deadline_not_flagged(self):
        status = _status(workers=[
            {"pid": 8, "host": "rack1", "phase": "dispatch", "chunk": 0,
             "deadline_s": 10.0, "age_s": 5.0},
        ])
        assert "possibly hung" not in render(status)

    def test_silent_dispatch_without_deadline_uses_global_threshold(self):
        status = _status(workers=[
            {"pid": 8, "host": "rack1", "phase": "dispatch", "chunk": 1,
             "age_s": HANG_AFTER_S + 1.0},
        ])
        assert "possibly hung" in render(status)
