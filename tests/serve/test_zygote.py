"""The runner zygote: lazy start, per-job isolation, and containment of
every process in the daemon's tree (timeouts, a killed zygote)."""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.serve import ServeApp, deterministic_qor

from tests.serve.conftest import TINY_DESIGN, TINY_SPEC, request, submit, wait_job
from tests.serve.test_qor_identity import _cli_flow_report

SERVE_SRC = Path(repro.__file__).parent / "serve"


def _gone(pid: int, timeout: float = 10.0) -> bool:
    """The process no longer runs (reaped, or a zombie nobody reaps)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return True
        if state in ("Z", "X"):
            return True
        time.sleep(0.02)
    return False


def _wait_for(predicate, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise TimeoutError("condition not reached")


class TestIsolation:
    def test_lazy_start_and_clean_job_after_a_fault(self, make_app, tmp_path):
        cli_bytes = json.dumps(
            deterministic_qor(_cli_flow_report(tmp_path)), sort_keys=True
        )
        app = make_app(workers=1)
        # Constructing the daemon starts no process.
        assert app.pool.zygote.pid is None

        crash = dict(TINY_SPEC)
        crash["env"] = {"REPRO_FAULTS": "raise:flow.clustering"}
        crashed = wait_job(app, submit(app, crash))
        assert crashed["state"] == "failed"
        zygote_pid = app.pool.zygote.pid
        assert zygote_pid is not None

        clean_id = submit(app, dict(TINY_SPEC))
        clean = wait_job(app, clean_id)
        assert clean["state"] == "done", clean
        assert clean["runner_pid"] != crashed["runner_pid"]
        # One zygote served both jobs.
        assert app.pool.zygote.pid == zygote_pid
        # The fault's environment did not leak into the next runner.
        _, result = request(app, "GET", f"/jobs/{clean_id}/result")
        assert json.dumps(deterministic_qor(result["qor"]), sort_keys=True) == cli_bytes


def test_relative_run_root(tmp_path, monkeypatch):
    """``repro serve``'s default run root is relative; runners work in
    their job directory, so every path they get is absolute."""
    monkeypatch.chdir(tmp_path)
    app = ServeApp("serve-run", workers=1)
    try:
        assert wait_job(app, submit(app, dict(TINY_SPEC)))["state"] == "done"
    finally:
        app.close(timeout=60.0)


def test_shutdown_leaves_no_process_behind(tmp_path):
    """After ``POST /shutdown`` and ``close()`` neither the zygote nor
    the runner it forked exists, not even as an unreaped zombie."""
    app = ServeApp(str(tmp_path / "run"), workers=1)
    try:
        record = wait_job(app, submit(app, dict(TINY_SPEC)))
        assert record["state"] == "done", record
        pids = {"zygote": app.pool.zygote.pid, "runner": record["runner_pid"]}
        assert request(app, "POST", "/shutdown", {})[0] == 202
    finally:
        app.close(timeout=10.0)
    for role, pid in pids.items():
        assert not os.path.exists(f"/proc/{pid}"), (role, pid)


class TestContainment:
    def test_timeout_kills_the_runner(self, make_app):
        app = make_app(workers=1, job_timeout=0.05)
        record = wait_job(app, submit(app, dict(TINY_SPEC)))
        assert record["state"] == "failed"
        assert "exceeded timeout" in record["error"]
        # Killed, not waited for; and reaped before the exit was reported.
        assert not (app.registry.get(record["id"]).dir / "result.json").exists()
        assert not os.path.exists(f"/proc/{record['runner_pid']}")

        app.pool.job_timeout = None
        assert wait_job(app, submit(app, dict(TINY_SPEC)))["state"] == "done"

    def test_zygote_killed_between_jobs_restarts(self, make_app):
        app = make_app(workers=1)
        assert wait_job(app, submit(app, dict(TINY_SPEC)))["state"] == "done"
        first = app.pool.zygote.pid
        os.kill(first, signal.SIGKILL)
        assert _gone(first)

        record = wait_job(app, submit(app, dict(TINY_SPEC)))
        assert record["state"] == "done", record
        assert app.pool.zygote.pid not in (None, first)

    def test_zygote_killed_mid_job_fails_the_job(self, make_app):
        app = make_app(workers=1)
        # Big enough that the runner is still busy when its zygote dies.
        job_id = submit(app, {"design": dict(TINY_DESIGN, num_instances=10000)})
        runner = _wait_for(lambda: app.registry.get(job_id).runner_pid)
        os.kill(app.pool.zygote.pid, signal.SIGKILL)

        record = wait_job(app, job_id, timeout=30.0)
        assert record["state"] == "failed"
        assert "zygote died (killed by SIGKILL)" in record["error"]
        # The orphaned runner does not keep writing into the failed job.
        assert _gone(runner, timeout=2.0)

        assert wait_job(app, submit(app, dict(TINY_SPEC)))["state"] == "done"


def test_stats_latency_block(make_app):
    app = make_app(workers=1)
    _, stats = request(app, "GET", "/stats")
    assert stats["latency"]["jobs"] == 0
    assert stats["latency"]["run_s"] == {"p50": None, "p95": None}

    for _ in range(2):
        wait_job(app, submit(app, dict(TINY_SPEC)))
    _, stats = request(app, "GET", "/stats")
    latency = stats["latency"]
    assert latency["jobs"] == 2
    for name in ("queue_wait_s", "start_s", "run_s"):
        assert 0.0 <= latency[name]["p50"] <= latency[name]["p95"]
    # Forking is part of running.
    assert latency["start_s"]["p95"] <= latency["run_s"]["p95"]


_PRELOAD_PROBE = """
import json, os, sys
from repro.serve import runner
from repro.serve.registry import JobRegistry
from repro.serve.schemas import CHECKPOINT_DIRNAME, parse_job_spec

for name in runner.PRELOAD:
    __import__(name)
before = set(sys.modules)
root, design, edit_target = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
registry = JobRegistry(root)
spec = parse_job_spec({"design": design})
flow = registry.create(spec, root + "/cache")
assert runner.main([str(flow.dir)]) == 0
edits = [{"kind": "resize", "instance": edit_target, "master": "NAND2_X2"}]
eco = registry.create(spec, root + "/cache", eco={
    "parent": flow.id,
    "checkpoint_dir": str(flow.dir / CHECKPOINT_DIRNAME),
    "edits": edits,
})
assert runner.main([str(eco.dir)]) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_preload_covers_flow_and_eco_jobs(tmp_path):
    """A routed flow job and an ECO job import nothing the zygote has
    not already imported."""
    from repro.designs import DesignSpec, generate_design

    design = generate_design(DesignSpec(**TINY_DESIGN))
    target = next(
        i.name
        for i in design.instances
        if i.master.name == "NAND2_X1" and not i.fixed
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    probe = subprocess.run(
        [
            sys.executable, "-c", _PRELOAD_PROBE,
            str(tmp_path / "run"), json.dumps(TINY_DESIGN), target,
        ],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(probe.stdout.splitlines()[-1]) == []


def test_only_the_zygote_forks():
    """No pickle anywhere in the service, and ``os.fork`` only in the
    zygote's runner fork (the daemon runs HTTP threads)."""
    forks = []
    for path in sorted(SERVE_SRC.glob("*.py")):
        source = path.read_text()
        assert "pickle" not in source, path.name
        tree = ast.parse(source)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "fork"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                ):
                    forks.append((path.name, func.name))
    assert forks == [("runner.py", "_fork_runner")]
