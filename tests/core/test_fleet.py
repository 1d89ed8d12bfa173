"""End-to-end guarantees of the distributed (fleet) sweep executor.

The fleet's contract (docs/performance.md, "Distributed sweep"):
distributing a shape sweep over socket-connected worker processes may
only change wall-clock, never results — including when workers are
killed mid-item, when connections fail to hand-shake, when a result
stream tears mid-frame, and when no worker shows up at all (serial
fallback).  Each sweep here runs real worker processes against a real
listener: forked ones (``jobs=N``), and in one test an external
``python -m repro worker --connect`` interpreter.
"""

import os
import subprocess
import sys
import time

import pytest

from repro import perf
from repro.core.fanout import FleetExecutor, _FleetWorker
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRFramework
from repro.core import wire
from repro.db.database import DesignDatabase
from repro.designs import DesignSpec, generate_design
from repro.recovery import faults


@pytest.fixture(scope="module")
def problem():
    design = generate_design(
        DesignSpec(name="fleettest", num_instances=500, seed=7)
    )
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=150)
    )
    return design, clustering.members()


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


def _config(**overrides):
    base = dict(
        min_cluster_instances=60,
        max_vpr_clusters=2,
        placer_iterations=2,
        chunk_size=4,
        jobs=1,
        seed=7,
    )
    base.update(overrides)
    return VPRConfig(**base)


def _sweep(design, members, config, factory=None):
    framework = VPRFramework(config)
    if factory is not None:
        framework.executor_factory = factory
    cluster_ids = config.eligible_clusters(members)
    perf.enable()
    perf.reset()
    try:
        sweeps = framework.sweep_clusters(design, members, cluster_ids)
        counters = dict(perf.report().counters)
    finally:
        perf.disable()
        perf.reset()
    return sweeps, counters


def _qor(sweeps):
    """The full QoR surface: every cost pair plus the chosen shape."""
    return [
        (
            s.cluster_id,
            (s.best.aspect_ratio, s.best.utilization),
            [(e.hpwl_cost, e.congestion_cost) for e in s.evaluations],
        )
        for s in sorted(sweeps, key=lambda s: s.cluster_id)
    ]


@pytest.fixture(scope="module")
def serial_qor(problem):
    design, members = problem
    sweeps, _ = _sweep(design, members, _config())
    return _qor(sweeps)


class TestFleetSweep:
    def test_two_workers_match_serial_bitwise(self, problem, serial_qor):
        design, members = problem
        box = []

        def factory():
            box.append(FleetExecutor(workers=2))
            return box[-1]

        sweeps, counters = _sweep(design, members, _config(jobs=2), factory)
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.state_sent", 0) == 2
        # Clean shutdown: both workers reaped on the polite path.
        assert box[0].worker_exit_codes == [0, 0]

    def test_killed_worker_degrades_to_redispatch(
        self, problem, serial_qor
    ):
        design, members = problem
        box = []
        # The parent's (empty) fault state is already read: a forked
        # worker must re-arm from its own environment entry.
        assert not faults.is_active()

        def factory():
            box.append(
                FleetExecutor(
                    workers=2,
                    worker_env=[{"REPRO_FAULTS": "kill:vpr.item"}, None],
                )
            )
            return box[-1]

        sweeps, counters = _sweep(design, members, _config(jobs=2), factory)
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.worker_lost", 0) >= 1
        assert counters.get("vpr.fleet.redispatch", 0) >= 1
        # The armed worker died with the kill action's exit code; the
        # survivor shut down cleanly.
        assert sorted(
            code for code in box[0].worker_exit_codes if code is not None
        ) == [0, 117]

    def test_connect_fault_drops_one_worker_not_the_sweep(
        self, problem, serial_qor
    ):
        design, members = problem
        faults.configure("raise:fleet.connect")

        def factory():
            return FleetExecutor(workers=2, connect_timeout=10.0)

        start = time.monotonic()
        sweeps, counters = _sweep(design, members, _config(jobs=2), factory)
        elapsed = time.monotonic() - start
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.connect_failed", 0) >= 1
        # The dropped worker's child exits at once, and the survivor has
        # connected: the parent stops waiting then, not at the deadline.
        assert elapsed < 5.0, f"waited {elapsed:.1f}s for an exited worker"

    def test_torn_result_stream_redispatches(self, problem, serial_qor):
        design, members = problem
        faults.configure("raise:fleet.recv")

        def factory():
            return FleetExecutor(workers=2)

        sweeps, counters = _sweep(design, members, _config(jobs=2), factory)
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.worker_lost", 0) >= 1
        assert counters.get("vpr.fleet.redispatch", 0) >= 1

    def test_no_workers_falls_back_to_serial(self, problem, serial_qor):
        design, members = problem

        def factory():
            # Nothing will ever dial this listener.
            return FleetExecutor(
                workers=1, listen="127.0.0.1:0", connect_timeout=0.5
            )

        sweeps, counters = _sweep(
            design, members, _config(fleet_listen="127.0.0.1:0"), factory
        )
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.executor.fallback", 0) == 1

    def test_external_worker_matches_serial_bitwise(self, problem, serial_qor):
        """A listen address means external workers: nothing is forked,
        and a fresh ``repro worker`` interpreter unpickles the state."""
        import repro

        design, members = problem
        executor = FleetExecutor(workers=1, listen="127.0.0.1:0")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", executor.endpoint, "--quiet"],
            env=env,
        )
        try:
            sweeps, counters = _sweep(
                design, members, _config(fleet_listen=executor.endpoint),
                lambda: executor,
            )
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.state_sent", 0) == 1
        assert counters.get("vpr.executor.fallback", 0) == 0
        assert executor.worker_exit_codes == []  # it forked nothing


class TestStateSync:
    def _worker_pair(self):
        import socket

        left, right = socket.socketpair()
        worker = _FleetWorker(sock=left, pid=1, host="h", label="h:1")
        return worker, left, right

    def test_new_digest_ships_full_state(self):
        worker, left, right = self._worker_pair()
        try:
            executor = FleetExecutor.__new__(FleetExecutor)
            executor._sync_state(worker, b"payload", "digest-a")
            message = wire.recv_msg(right)
            assert message["type"] == "state"
            assert message["blob"] == b"payload"
            assert worker.digest == "digest-a"
        finally:
            left.close()
            right.close()

    def test_matching_digest_ships_reference_only(self):
        worker, left, right = self._worker_pair()
        worker.digest = "digest-a"
        try:
            executor = FleetExecutor.__new__(FleetExecutor)
            executor._sync_state(worker, b"payload", "digest-a")
            message = wire.recv_msg(right)
            assert message["type"] == "state_ref"
            assert "blob" not in message
        finally:
            left.close()
            right.close()

    def test_send_failure_marks_worker_lost(self):
        worker, left, right = self._worker_pair()
        right.close()
        left.close()
        executor = FleetExecutor.__new__(FleetExecutor)
        executor._sync_state(worker, b"payload", "digest-a")
        assert worker.alive is False


class TestForkSafety:
    def test_forked_worker_drops_the_live_monitor(self, tmp_path, monkeypatch):
        """A forked worker must not inherit the parent's live monitor:
        the parent's monitor thread may hold its lock at the fork, and
        that lock would stay held forever in the child."""
        from repro import monitor, obs
        from repro.core import fanout

        monkeypatch.setattr(
            fanout,
            "run_worker",
            lambda endpoint, quiet: 0 if obs.session().monitor is None else 1,
        )
        monitor.enable(str(tmp_path))
        executor = FleetExecutor(workers=2)
        try:
            executor._fork_local_workers()
        finally:
            executor.close()
            monitor.disable()
        assert executor.worker_exit_codes == [0, 0]
