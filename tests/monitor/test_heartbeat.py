"""Worker heartbeat round-trip, torn-line tolerance, and hygiene."""

import json
import os

from repro.monitor.heartbeat import (
    HeartbeatWriter,
    clear_worker_beats,
    heartbeat_dir,
    read_worker_beats,
)


class TestHeartbeatRoundTrip:
    def test_beat_and_read(self, tmp_path):
        directory = heartbeat_dir(str(tmp_path))
        writer = HeartbeatWriter(directory)
        writer.beat("start", item="c0/1")
        writer.beat("done", item="c0/1", error=None)
        writer.close()
        beats = read_worker_beats(directory)
        assert len(beats) == 1  # one record per worker, the LAST beat
        beat = beats[0]
        assert beat["pid"] == os.getpid()
        assert beat["phase"] == "done"
        assert beat["item"] == "c0/1"
        assert beat["age_s"] >= 0.0

    def test_age_relative_to_now(self, tmp_path):
        writer = HeartbeatWriter(str(tmp_path))
        writer.beat("start", item="c1/0")
        writer.close()
        with open(writer.path) as handle:
            t = json.loads(handle.readline())["t"]
        beats = read_worker_beats(str(tmp_path), now=t + 42.0)
        assert abs(beats[0]["age_s"] - 42.0) < 1e-6

    def test_multiple_workers_merge(self, tmp_path):
        writer = HeartbeatWriter(str(tmp_path))
        writer.beat("start", item="a")
        writer.close()
        # fake a second worker file (one writer per pid in real runs)
        other = os.path.join(tmp_path, "worker-99999999.jsonl")
        with open(other, "w") as handle:
            handle.write(json.dumps({"pid": 99999999, "t": 0.0,
                                     "phase": "done"}) + "\n")
        beats = read_worker_beats(str(tmp_path))
        assert {b["pid"] for b in beats} == {os.getpid(), 99999999}


class TestHeartbeatTolerance:
    def test_torn_trailing_line_skipped(self, tmp_path):
        writer = HeartbeatWriter(str(tmp_path))
        writer.beat("start", item="a")
        writer.beat("done", item="a")
        writer.close()
        with open(writer.path, "a") as handle:
            handle.write('{"pid": 1, "t": 9.9, "phase": "sta')  # no newline
        beats = read_worker_beats(str(tmp_path))
        assert beats[0]["phase"] == "done"  # last *intact* line wins

    def test_long_file_reads_only_tail(self, tmp_path):
        """A beat file much larger than the tail window still yields
        the last record — the poll never re-parses the whole history."""
        writer = HeartbeatWriter(str(tmp_path))
        for i in range(2000):  # well past _TAIL_BYTES of history
            writer.beat("done", item=f"c{i}/0")
        writer.beat("start", item="c2000/0")
        writer.close()
        beats = read_worker_beats(str(tmp_path))
        assert len(beats) == 1
        assert beats[0]["phase"] == "start"
        assert beats[0]["item"] == "c2000/0"

    def test_tail_seek_mid_line_is_tolerated(self, tmp_path):
        """When the tail seek lands inside a record, the partial first
        line is skipped and a later intact line wins."""
        from repro.monitor import heartbeat

        path = os.path.join(tmp_path, "worker-7.jsonl")
        with open(path, "w") as handle:
            # One oversized record guarantees the seek lands mid-line.
            handle.write(json.dumps({"pid": 7, "t": 1.0, "phase": "start",
                                     "pad": "x" * heartbeat._TAIL_BYTES}) + "\n")
            handle.write(json.dumps({"pid": 7, "t": 2.0,
                                     "phase": "done"}) + "\n")
        beats = read_worker_beats(str(tmp_path))
        assert len(beats) == 1
        assert beats[0]["phase"] == "done"

    def test_missing_directory_yields_nothing(self, tmp_path):
        assert read_worker_beats(str(tmp_path / "nope")) == []

    def test_empty_and_foreign_files_ignored(self, tmp_path):
        open(os.path.join(tmp_path, "worker-1.jsonl"), "w").close()
        with open(os.path.join(tmp_path, "notes.txt"), "w") as handle:
            handle.write("not a heartbeat\n")
        assert read_worker_beats(str(tmp_path)) == []


class TestClearWorkerBeats:
    def test_clear_removes_only_heartbeats(self, tmp_path):
        writer = HeartbeatWriter(str(tmp_path))
        writer.beat("start")
        writer.close()
        keep = os.path.join(tmp_path, "status.json")
        with open(keep, "w") as handle:
            handle.write("{}")
        clear_worker_beats(str(tmp_path))
        assert read_worker_beats(str(tmp_path)) == []
        assert os.path.exists(keep)

    def test_clear_missing_directory_is_noop(self, tmp_path):
        clear_worker_beats(str(tmp_path / "nope"))
