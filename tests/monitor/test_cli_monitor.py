"""CLI surface of the flight recorder: `flow --monitor`, dir-accepting
`report show|diff`, and `repro top --once`."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    from repro import perf, telemetry

    perf.disable()
    perf.reset()
    telemetry.disable()
    telemetry.reset()


def _run_flow(out_dir, seed=0, monitor=False, jobs=1):
    argv = [
        "flow",
        "--benchmark",
        "aes",
        "--no-routing",
        "--seed",
        str(seed),
        "--jobs",
        str(jobs),
        "--telemetry",
        str(out_dir),
    ]
    if monitor:
        argv.append("--monitor")
    return main(argv)


class TestMonitorFlag:
    def test_parser_accepts_monitor(self):
        args = build_parser().parse_args(
            ["flow", "--telemetry", "out", "--monitor"]
        )
        assert args.monitor is True

    def test_monitor_requires_telemetry(self):
        with pytest.raises(SystemExit, match="--monitor requires --telemetry"):
            main(["flow", "--benchmark", "aes", "--monitor"])

    def test_monitored_flow_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run0"
        assert _run_flow(out, monitor=True) == 0
        status = json.loads((out / "status.json").read_text())
        assert status["schema"] == "repro.monitor/1"
        assert status["state"] == "done"
        tasks = {t["name"]: t for t in status["progress"]}
        assert "vpr.items" in tasks
        for task in tasks.values():
            assert task["finished"] is True
            assert task["done"] == task["total"]
        run = json.loads((out / "run.json").read_text())
        assert run["monitor"]["samples"] >= 1
        assert run["monitor"]["peak_rss_bytes"] > 0
        assert run["monitor"]["system_s"] >= 0.0
        assert run["monitor"]["minor_faults"] >= 0
        assert {p["name"] for p in run["monitor"]["progress"]} == set(tasks)
        assert "monitor.rss" in run["metrics"]
        assert "Live monitor" in (out / "report.html").read_text()

    def test_fleet_worker_beats_reach_status(self, tmp_path, capsys):
        """The fleet parent hands each worker beat to the live monitor:
        the final status lists both forked workers, shut down, and no
        per-worker file is left in the run directory."""
        out = tmp_path / "run0"
        assert _run_flow(out, monitor=True, jobs=2) == 0
        status = json.loads((out / "status.json").read_text())
        assert set(status) == {
            "schema", "updated_unix", "pid", "state", "started_unix",
            "elapsed_s", "meta", "stage", "stages", "progress",
            "resources", "workers",
        }
        workers = status["workers"]
        assert len(workers) == 2
        assert len({(w["host"], w["pid"]) for w in workers}) == 2
        for worker in workers:
            assert set(worker) == {"pid", "host", "phase", "t", "age_s"}
            assert worker["phase"] == "shutdown"
            assert worker["pid"] != status["pid"]
        assert not (out / "monitor").exists()
        run = json.loads((out / "run.json").read_text())
        assert set(run["monitor"]) == {
            "samples", "interval_s", "peak_rss_bytes",
            "stage_peak_rss_bytes", "system_s", "minor_faults", "progress",
            "status_writes",
        }

    def test_unmonitored_flow_writes_no_status(self, tmp_path, capsys):
        out = tmp_path / "run0"
        assert _run_flow(out, monitor=False) == 0
        assert not (out / "status.json").exists()
        run = json.loads((out / "run.json").read_text())
        assert run.get("monitor") is None
        assert "monitor.rss" not in run["metrics"]


class TestReportDirResolution:
    def test_show_accepts_directory(self, tmp_path, capsys):
        out = tmp_path / "run0"
        assert _run_flow(out, monitor=True) == 0
        capsys.readouterr()
        assert main(["report", "show", str(out)]) == 0
        text = capsys.readouterr().out
        assert "gp.hpwl" in text
        assert "peak RSS" in text  # monitor block rendered
        assert "minor faults" in text

    def test_diff_accepts_directories(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run_flow(a, seed=0) == 0
        assert _run_flow(b, seed=0) == 0
        capsys.readouterr()
        assert main(["report", "diff", str(a), str(b)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_missing_run_json_clear_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["report", "show", str(empty)])
        message = str(exc.value)
        assert "run.json" in message
        assert "No event log" in message

    def test_in_flight_run_suggests_top(self, tmp_path):
        rundir = tmp_path / "live"
        rundir.mkdir()
        with open(rundir / "events.jsonl", "w") as handle:
            handle.write(json.dumps({"type": "run.config", "seq": 0}) + "\n")
            handle.write('{"type": "torn')  # racing writer: tolerated
        with pytest.raises(SystemExit) as exc:
            main(["report", "show", str(rundir)])
        message = str(exc.value)
        assert "repro top" in message
        assert "1 record(s)" in message

    def test_explicit_run_json_path_still_works(self, tmp_path, capsys):
        out = tmp_path / "run0"
        assert _run_flow(out) == 0
        capsys.readouterr()
        assert main(["report", "show", str(out / "run.json")]) == 0


class TestTopCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["top", "somedir"])
        assert args.rundir == "somedir"
        assert args.once is False
        assert args.interval == 1.0
        assert args.timeout is None

    def test_top_once_on_finished_run(self, tmp_path, capsys):
        out = tmp_path / "run0"
        assert _run_flow(out, monitor=True) == 0
        capsys.readouterr()
        assert main(["top", str(out), "--once"]) == 0
        text = capsys.readouterr().out
        assert "repro top — done" in text
        assert "progress:" in text

    def test_top_once_without_status_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["top", str(empty), "--once"]) == 1
        assert "no status.json" in capsys.readouterr().out
