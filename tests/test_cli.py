"""CLI tests (python -m repro)."""

import pytest

from repro.cli import build_parser, main
from repro.core.vpr import VPRConfig


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_defaults(self):
        args = build_parser().parse_args(["flow"])
        assert args.benchmark == "aes"
        assert args.tool == "openroad"
        assert args.flow == "ours"

    def test_invalid_tool_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "--tool", "magic"])


class TestOneVocabulary:
    """``repro flow`` and ``POST /jobs`` accept and reject the same
    values: one list of choices, one generator-parameter check."""

    @staticmethod
    def _cli_accepts(argv):
        try:
            build_parser().parse_args(["flow", *argv])
        except SystemExit:
            return False
        return True

    @staticmethod
    def _serve_accepts(payload):
        from repro.serve.schemas import SpecError, parse_job_spec

        try:
            parse_job_spec(payload)
        except SpecError:
            return False
        return True

    @pytest.mark.parametrize("key", ["flow", "tool", "clustering", "shapes"])
    def test_choices(self, key, capsys):
        from repro import cli

        choices = getattr(cli, f"{key.upper()}_CHOICES")
        for value in (*choices, "no-such-" + key, ""):
            accepted = self._cli_accepts([f"--{key}", value])
            assert accepted == (value in choices), (key, value)
            assert accepted == self._serve_accepts({"design": "aes", key: value})

    @pytest.mark.parametrize(
        "jobs, valid", [(1, True), (2, True), (0, False), (-3, False)]
    )
    def test_jobs(self, jobs, valid, capsys):
        assert self._cli_accepts(["--jobs", str(jobs)]) == valid
        assert self._serve_accepts({"design": "aes", "jobs": jobs}) == valid
        if not valid:
            assert "--jobs" in capsys.readouterr().err
            with pytest.raises(ValueError, match="jobs"):
                VPRConfig(jobs=jobs)

    @pytest.mark.parametrize(
        "params, valid",
        [
            ({"name": "t", "num_instances": 60, "seed": 3}, True),
            ({"name": "t"}, False),  # missing num_instances
            ({"num_instances": 60}, False),  # missing name
            ({"name": "t", "num_instances": 60, "warp": 1}, False),
            (["t", 60], False),  # not an object
        ],
    )
    def test_generator_parameters(self, params, valid):
        import json
        from argparse import Namespace

        from repro.cli import _load_design

        args = Namespace(generator=json.dumps(params))
        if valid:
            assert _load_design(args).name == params["name"]
        else:
            with pytest.raises(SystemExit, match="--generator"):
                _load_design(args)
        if isinstance(params, dict):  # a non-object design is a benchmark name
            assert self._serve_accepts({"design": params}) == valid


class TestCommands:
    def test_bench_table(self, capsys):
        assert main(["bench-table"]) == 0
        out = capsys.readouterr().out
        assert "aes" in out
        assert "MemPool Group" in out

    def test_cluster_command(self, capsys):
        assert main(["cluster", "--benchmark", "aes", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        assert "cut weight" in out

    def test_flow_default_no_routing(self, capsys):
        code = main(
            ["flow", "--benchmark", "aes", "--flow", "default", "--no-routing"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HPWL" in out
        assert "routed WL" not in out

    def test_flow_ours_uniform_shapes(self, capsys):
        code = main(
            [
                "flow",
                "--benchmark",
                "aes",
                "--shapes",
                "uniform",
                "--no-routing",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clusters" in out

    def test_sta_command(self, capsys):
        assert main(["sta", "--benchmark", "aes", "--paths", "2"]) == 0
        out = capsys.readouterr().out
        assert "WNS" in out
        assert "power" in out

    def test_flow_verilog_requires_liberty(self):
        with pytest.raises(SystemExit):
            main(["flow", "--verilog", "x.v"])

    def test_flow_from_files(self, tmp_path, capsys, small_design_fresh):
        from repro.netlist.liberty import write_liberty
        from repro.netlist.verilog import write_verilog

        (tmp_path / "d.v").write_text(write_verilog(small_design_fresh))
        (tmp_path / "d.lib").write_text(
            write_liberty(small_design_fresh.masters)
        )
        code = main(
            [
                "flow",
                "--verilog",
                str(tmp_path / "d.v"),
                "--liberty",
                str(tmp_path / "d.lib"),
                "--flow",
                "default",
                "--no-routing",
            ]
        )
        assert code == 0


class TestTelemetryCommands:
    @pytest.fixture(autouse=True)
    def _clean(self):
        yield
        from repro import perf, telemetry

        perf.disable()
        perf.reset()
        telemetry.disable()
        telemetry.reset()

    def _run_flow(self, out_dir, seed):
        return main(
            [
                "flow",
                "--benchmark",
                "aes",
                "--seed",
                str(seed),
                "--telemetry",
                str(out_dir),
            ]
        )

    def test_flow_telemetry_artifacts(self, tmp_path, capsys):
        import json

        out = tmp_path / "run0"
        assert self._run_flow(out, seed=0) == 0
        data = json.loads((out / "run.json").read_text())
        assert data["schema"] == "repro.telemetry/1"
        assert "gp.hpwl" in data["metrics"]
        assert len(data["metrics"]) >= 5
        assert data["perf"]["schema"] == "repro.perf/1"
        assert "<svg" in (out / "report.html").read_text()
        events = [
            json.loads(line)
            for line in (out / "events.jsonl").read_text().splitlines()
        ]
        assert events[0]["type"] == "run.config"
        assert any(e["type"] == "flow.done" for e in events)

    def test_report_show_and_diff(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert self._run_flow(a, seed=0) == 0
        assert self._run_flow(b, seed=0) == 0
        capsys.readouterr()

        assert main(["report", "show", str(a / "run.json")]) == 0
        out = capsys.readouterr().out
        assert "gp.hpwl" in out and "streams" in out

        # Identical runs: the gate passes.
        code = main(
            ["report", "diff", str(a / "run.json"), str(b / "run.json")]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

        # Doctor the candidate to regress gp.hpwl by 50%.
        import json

        data = json.loads((b / "run.json").read_text())
        data["metrics"]["gp.hpwl"]["values"][-1] *= 1.5
        (b / "run.json").write_text(json.dumps(data))
        code = main(
            ["report", "diff", str(a / "run.json"), str(b / "run.json")]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out


class TestCacheCommands:
    def _seed_cache(self, directory, keys):
        from repro.cache import EvaluationCache

        cache = EvaluationCache(str(directory))
        for i, key in enumerate(keys):
            cache.put(
                key,
                {"ar": 1.0, "util": 0.9, "hpwl_cost": float(i),
                 "congestion_cost": 0.1, "seconds": 0.5},
            )
        return cache

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_cache_stats(self, tmp_path, capsys):
        self._seed_cache(tmp_path, ["aa" + "0" * 62, "bb" + "0" * 62])
        assert main(["cache", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries       : 2" in out
        assert "bytes on disk" in out
        assert "hit ratio" in out

    def test_cache_gc(self, tmp_path, capsys):
        import os

        cache = self._seed_cache(
            tmp_path, ["aa" + "0" * 62, "bb" + "0" * 62, "cc" + "0" * 62]
        )
        for i, key in enumerate(
            ["aa" + "0" * 62, "bb" + "0" * 62, "cc" + "0" * 62]
        ):
            os.utime(cache._entry_path(key), (1000.0 + i, 1000.0 + i))
        assert main(
            ["cache", "gc", str(tmp_path), "--max-entries", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted 2 entries; 1 remain" in out

    def test_cache_clear(self, tmp_path, capsys):
        self._seed_cache(tmp_path, ["aa" + "0" * 62])
        assert main(["cache", "clear", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "stats", str(tmp_path)]) == 0
        assert "entries       : 0" in capsys.readouterr().out

    def test_flow_cache_requires_ours(self):
        with pytest.raises(SystemExit, match="--flow ours"):
            main(
                ["flow", "--flow", "default", "--cache", "/tmp/nope"]
            )

    def test_flow_with_cache_populates_store(self, tmp_path, capsys):
        code = main(
            [
                "flow",
                "--benchmark",
                "aes",
                "--no-routing",
                "--cache",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        from repro.cache import EvaluationCache

        assert EvaluationCache(str(tmp_path / "cache")).stats().entries > 0


class TestVizCommand:
    def test_viz_writes_svgs(self, tmp_path, capsys):
        code = main(
            ["viz", "--benchmark", "aes", "--out", str(tmp_path)]
        )
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "aes_placement.svg",
            "aes_clusters.svg",
            "aes_congestion.svg",
        }


class TestFleetCli:
    def test_flow_fleet_flags_parsed(self):
        """``--jobs`` is the fleet's width; ``--fleet-listen`` makes its
        workers external.  The old fleet flags are gone."""
        args = build_parser().parse_args(
            ["flow", "--jobs", "2", "--fleet-listen", "0.0.0.0:7000"]
        )
        assert args.jobs == 2
        assert args.fleet_listen == "0.0.0.0:7000"
        for gone in (["--fleet", "2"], ["--fleet-external"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["flow", *gone])

    def test_flow_fleet_defaults_off(self):
        args = build_parser().parse_args(["flow"])
        assert args.jobs == 1
        assert args.fleet_listen is None
        assert not hasattr(args, "fleet")
        assert not hasattr(args, "fleet_external")

    def test_fleet_requires_ours_flow(self):
        with pytest.raises(SystemExit, match="--fleet-listen .*--flow ours"):
            main(["flow", "--flow", "default", "--fleet-listen", "h:7000"])

    def test_worker_subcommand_parsed(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "parent:7000",
             "--reconnect", "3", "--reconnect-delay", "0.5", "--quiet"]
        )
        assert args.command == "worker"
        assert args.connect == "parent:7000"
        assert args.reconnect == 3
        assert args.reconnect_delay == 0.5
        assert args.quiet is True

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_bad_endpoint_rejected(self):
        from repro.core.wire import parse_endpoint

        with pytest.raises(ValueError):
            parse_endpoint("no-port-here")
        assert parse_endpoint("[::1]:70") == ("::1", 70)
        assert parse_endpoint("h:7000") == ("h", 7000)

    def test_fleet_bad_listen_endpoint_is_an_oserror(self):
        """The same parser's ValueError, as the infrastructure failure
        the sweep answers with the inline executor."""
        from repro.core.fanout import FleetExecutor

        with pytest.raises(OSError, match="HOST:PORT"):
            FleetExecutor(listen="no-port-here")


class TestRecordingLifecycle:
    """`flow` / `eco` enter one lifecycle (``obs.run``): whatever the
    flags turned on is off again on every exit path — or exactly as the
    caller had it — with the event-log file closed, and a failing run
    leaves a ``failed`` status behind."""

    @staticmethod
    def _enabled():
        from repro import monitor, perf, telemetry

        return perf.is_enabled(), telemetry.is_enabled(), monitor.is_enabled()

    @staticmethod
    def _open_handles(path):
        import os

        held = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if target == str(path):
                held.append(fd)
        return held

    def _flags(self, out):
        return ["--telemetry", str(out), "--monitor",
                "--perf-report", str(out / "perf.json")]

    def _failed_status(self, out):
        import json

        status = json.loads((out / "status.json").read_text())
        assert status["state"] == "failed"
        return status["error"]

    def test_success_leaves_everything_off(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["flow", "--benchmark", "aes", *self._flags(out)]) == 0
        assert self._enabled() == (False, False, False)
        assert self._open_handles(out / "events.jsonl") == []
        assert (out / "perf.json").exists() and (out / "run.json").exists()

    def test_callers_own_state_is_back(self, tmp_path, capsys):
        from repro import obs, perf

        perf.enable()
        perf.reset()
        try:
            obs.count("caller.counter", 3)
            out = tmp_path / "run"
            out.mkdir()
            assert main(["flow", "--benchmark", "aes", *self._flags(out)]) == 0
            assert self._enabled() == (True, False, False)
            # The run recorded into its own session, not the caller's.
            assert perf.report().counters == {"caller.counter": 3}
        finally:
            perf.disable()
            perf.reset()

    def test_eco_error_leaves_everything_off(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        edits = tmp_path / "edits.json"
        edits.write_text("[]")
        with pytest.raises(SystemExit, match="eco: "):
            main(["eco", str(tmp_path / "no-such-checkpoint"),
                  "--edits", str(edits), *self._flags(out)])
        assert self._enabled() == (False, False, False)
        assert self._open_handles(out / "events.jsonl") == []
        assert "checkpoint" in self._failed_status(out)
        assert not (out / "run.json").exists()

    def test_flow_abort_leaves_everything_off(self, tmp_path, monkeypatch):
        from repro.recovery import faults

        out = tmp_path / "run"
        out.mkdir()
        monkeypatch.setenv(faults.ENV_VAR, "raise:flow.vpr")
        faults.reset()
        try:
            with pytest.raises(faults.FaultInjected):
                main(["flow", "--benchmark", "aes", *self._flags(out)])
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            faults.reset()
        assert self._enabled() == (False, False, False)
        assert self._open_handles(out / "events.jsonl") == []
        assert "FaultInjected" in self._failed_status(out)
