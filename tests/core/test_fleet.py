"""End-to-end guarantees of the distributed (fleet) sweep executor.

The fleet's contract (docs/performance.md, "Distributed sweep"):
distributing a shape sweep over socket-connected worker processes may
only change wall-clock, never results — including when workers are
killed mid-item, when connections fail to hand-shake, when a result
stream tears mid-frame, when a worker stalls mid-frame or answers
garbage, and when no worker shows up at all (serial fallback).  The
fleet is only a transport: it sends each chunk to at most one worker,
and a lost worker's chunk comes back to the sweep, which evaluates it
in its own process.  Each sweep here runs against a real listener:
forked workers (``jobs=N``), an external ``python -m repro worker
--connect`` interpreter, or a hand-rolled worker in a thread.
"""

import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import codec, perf
from repro.core.fanout import FleetExecutor, SweepExecutor, _FleetWorker
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRFramework
from repro.core import sweep, wire, worker
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


@pytest.fixture()
def dispatched(monkeypatch):
    """The chunk ids this process sends to fleet workers, in order."""
    sent = []
    send = wire.send_msg

    def recording(sock, header, columns=None):
        if header.get("type") == "chunk":
            sent.append(header["id"])
        return send(sock, header, columns)

    monkeypatch.setattr(wire, "send_msg", recording)
    return sent


def _once_each(sent):
    """Every chunk went to at most one worker."""
    assert sent, "no chunk was dispatched"
    assert len(sent) == len(set(sent)), f"a chunk was re-sent: {sent}"


@pytest.fixture(scope="module")
def serial_qor(problem):
    design, members = problem
    sweeps, _ = _sweep(design, members, _config())
    return _qor(sweeps)


class TestFleetSweep:
    def test_two_workers_match_serial_bitwise(self, problem, serial_qor, dispatched):
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
        _once_each(dispatched)
        assert sorted(dispatched) == list(range(len(dispatched)))

    def test_killed_worker_items_are_recomputed_by_the_sweep(
        self, problem, serial_qor, dispatched
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
        # The lost chunk's items came back failed and were evaluated by
        # the sweep in its own process, never re-sent to the survivor.
        assert counters.get("vpr.worker.error", 0) >= 1
        assert counters.get("vpr.item.terminal", 0) == 0
        _once_each(dispatched)
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

    def test_torn_result_stream_items_are_recomputed_by_the_sweep(
        self, problem, serial_qor, dispatched
    ):
        design, members = problem
        faults.configure("raise:fleet.recv")

        def factory():
            return FleetExecutor(workers=2)

        sweeps, counters = _sweep(design, members, _config(jobs=2), factory)
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.worker_lost", 0) >= 1
        assert counters.get("vpr.worker.error", 0) >= 1
        assert counters.get("vpr.item.terminal", 0) == 0
        _once_each(dispatched)

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

    def test_state_over_the_frame_bound_falls_back_to_serial(
        self, problem, serial_qor, monkeypatch
    ):
        design, members = problem
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 1 << 10)
        box = []

        def factory():
            box.append(FleetExecutor(workers=2))
            return box[-1]

        sweeps, counters = _sweep(design, members, _config(jobs=2), factory)
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.executor.fallback", 0) == 1
        assert box[0].worker_exit_codes == []  # refused before forking

    def test_external_worker_matches_serial_bitwise(self, problem, serial_qor):
        """A listen address means external workers: nothing is forked,
        and a fresh ``repro worker`` interpreter decodes the state."""
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


def _hello(sock, host="fake"):
    wire.send_msg(
        sock,
        {"type": "hello", "schema": wire.SCHEMA, "pid": 0, "host": host, "have": []},
    )


class _FakeWorker(threading.Thread):
    """A hand-rolled worker: it completes the handshake, then answers
    every chunk with ``answer(sock, header)`` until the parent hangs
    up."""

    def __init__(self, endpoint, answer):
        super().__init__(daemon=True)
        self.sock = socket.create_connection(wire.parse_endpoint(endpoint))
        self.answer = answer

    def run(self):
        try:
            _hello(self.sock)
            while True:
                header, _columns = wire.recv_msg(self.sock)
                if header["type"] == "chunk":
                    self.answer(self.sock, header)
        except (wire.WireError, OSError):
            pass
        finally:
            self.sock.close()


def _result(header, **change):
    """A well-formed result frame for a chunk, with ``change`` applied
    (a header field or column set to a value, or removed with None)."""
    size = len(header["items"])
    fields = {
        "type": "result",
        "id": header["id"],
        "errors": [None] * size,
        "recorded": [None] * size,
    }
    columns = {
        name: np.full(size, BOGUS)
        for name in ("hpwl_cost", "congestion_cost", "seconds")
    }
    for name, value in change.items():
        target = columns if name in columns else fields
        if value is None:
            del target[name]
        else:
            target[name] = value
    return fields, columns


#: Costs a misbehaving worker claims; none may ever be settled.
BOGUS = -1.0

MALFORMED = {
    "short errors": lambda h: _result(h, errors=[None]),
    "long costs": lambda h: _result(h, hpwl_cost=np.zeros(len(h["items"]) + 1)),
    "integer costs": lambda h: _result(
        h, congestion_cost=np.zeros(len(h["items"]), dtype=np.int64)
    ),
    "missing column": lambda h: _result(h, seconds=None),
    "error not text": lambda h: _result(h, errors=[1] * len(h["items"])),
    "recorded not a payload": lambda h: _result(
        h, recorded=[{"counters": "x"}] * len(h["items"])
    ),
    "another chunk": lambda h: _result(h, id=h["id"] + 1),
    "error reply": lambda h: ({"type": "error", "error": "nope"}, {}),
}


class TestMisbehavingWorkers:
    def _sweep_against(self, problem, answer, monkeypatch, **fleet):
        design, members = problem
        executor = FleetExecutor(workers=1, listen="127.0.0.1:0", **fleet)
        fake = _FakeWorker(executor.endpoint, answer)
        fake.start()
        settled = []
        settle = sweep._settle

        def spy(chain, keys, slots, c, k, evaluation, *rest):
            settled.append((evaluation.hpwl_cost, evaluation.congestion_cost))
            return settle(chain, keys, slots, c, k, evaluation, *rest)

        monkeypatch.setattr(sweep, "_settle", spy)
        try:
            result = _sweep(
                design, members, _config(fleet_listen=executor.endpoint),
                lambda: executor,
            )
        finally:
            fake.join(10)
        assert BOGUS not in {cost for pair in settled for cost in pair}
        return result

    @pytest.mark.parametrize("kind", list(MALFORMED))
    def test_malformed_result_is_lost_items(
        self, problem, serial_qor, kind, monkeypatch
    ):
        def answer(sock, header):
            wire.send_msg(sock, *MALFORMED[kind](header))

        sweeps, counters = self._sweep_against(problem, answer, monkeypatch)
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.worker_lost", 0) == 1
        assert counters.get("vpr.worker.error", 0) == len(
            [item for s in sweeps for item in s.evaluations]
        )

    def _sweep_past_a_stall(self, problem, item_timeout, after_chunk):
        """Sweep against one hand-rolled worker that takes the state and
        its first chunk, then runs ``after_chunk(sock)`` and stays
        silent.  The sweep runs in a thread, so a parent that never
        gives up fails the test instead of hanging it; returns
        ``(sweeps, counters)``."""
        design, members = problem
        connect_timeout = 3.0
        executor = FleetExecutor(
            workers=1,
            listen="127.0.0.1:0",
            connect_timeout=connect_timeout,
            item_timeout=item_timeout,
        )
        sock = socket.create_connection(wire.parse_endpoint(executor.endpoint))

        def stall():
            _hello(sock, host="stall")
            wire.recv_msg(sock)  # the sweep state
            wire.recv_msg(sock)  # the first chunk
            after_chunk(sock)

        box = {}

        def sweep():
            box["result"] = _sweep(
                design, members, _config(fleet_listen=executor.endpoint),
                lambda: executor,
            )

        staller = threading.Thread(target=stall, daemon=True)
        runner = threading.Thread(target=sweep, daemon=True)
        staller.start()
        runner.start()
        try:
            runner.join(connect_timeout + 30.0)
            assert not runner.is_alive(), "the sweep hung on a stalled worker"
        finally:
            sock.close()  # frees a hung parent, so the sweep thread ends
            runner.join(30.0)
        return box["result"]

    def test_stalled_frame_loses_the_worker_within_connect_timeout(
        self, problem, serial_qor
    ):
        """A worker that answers its first chunk with five bytes of a
        frame and then nothing: the parent must give up on it after
        ``connect_timeout`` (not after the 34 s chunk budget, and not
        never) and evaluate the sweep in its own process."""
        sweeps, counters = self._sweep_past_a_stall(
            problem, 1.0, lambda sock: sock.sendall(b"REPRO")
        )
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.worker_lost", 0) >= 1
        assert counters.get("vpr.worker.error", 0) >= 1

    def test_silent_worker_without_item_timeout_is_lost(
        self, problem, serial_qor
    ):
        """With no item timeout (``repro flow --jobs N``'s default) a
        chunk has no budget; a worker that takes one and then sends
        nothing at all, not even a beat, is lost after
        ``connect_timeout`` and its chunk is evaluated in process."""
        sweeps, counters = self._sweep_past_a_stall(
            problem, None, lambda sock: None
        )
        assert _qor(sweeps) == serial_qor
        assert counters.get("vpr.fleet.worker_lost", 0) >= 1
        assert counters.get("vpr.worker.error", 0) >= 1


class TestWorkerStateValidation:
    """A state frame that decodes but is not a sweep state is answered
    with an ``error`` frame, and the worker ends that connection."""

    @pytest.fixture(scope="class")
    def state(self, problem):
        design, members = problem
        framework = VPRFramework(_config())
        induced = {
            c: framework.induce(design, members[c])
            for c in framework.config.eligible_clusters(members)[:1]
        }
        return sweep._sweep_state(framework, SweepExecutor(), induced)

    def _serve(self, header, columns):
        parent, child = socket.socketpair()
        outcome = {}
        server = threading.Thread(
            target=lambda: outcome.setdefault("v", worker._serve_connection(child))
        )
        server.start()
        try:
            assert wire.recv_msg(parent)[0]["type"] == "hello"
            wire.send_msg(parent, {**header, "type": "state"}, columns)
            reply, _columns = wire.recv_msg(parent)
            server.join(30)
        finally:
            parent.close()
            child.close()
        return reply, outcome.get("v")

    @pytest.mark.parametrize(
        "damage",
        ["config not an object", "unknown form", "column missing", "area not a number"],
    )
    def test_invalid_state_gets_an_error_reply(self, state, damage):
        header = dict(state["header"])
        columns = dict(state["columns"])
        entry = dict(header["clusters"][0])
        if damage == "config not an object":
            header["config"] = ["delta"]
        elif damage == "unknown form":
            entry["form"] = "repro.netlist.arrays/0"
        elif damage == "column missing":
            del columns[f"{entry['id']}/net_ptr"]
        else:
            entry["area"] = "wide"
        header["clusters"] = [entry]
        held = dict(worker._STATES)
        reply, outcome = self._serve(header, columns)
        assert reply["type"] == "error"
        assert "ValueError" in reply["error"]
        assert outcome == "error"
        assert worker._STATES == held  # nothing half-installed


class TestStateSync:
    def _worker_pair(self):
        left, right = socket.socketpair()
        worker = _FleetWorker(sock=left, pid=1, host="h", label="h:1")
        return worker, left, right

    def _frame(self):
        frame = codec.encode_frame({"type": "state"}, {"x": np.arange(3.0)})
        return frame, codec.read_prefix(frame)[1]

    def test_new_digest_ships_full_state(self):
        worker, left, right = self._worker_pair()
        frame, digest = self._frame()
        try:
            executor = FleetExecutor.__new__(FleetExecutor)
            executor._sync_state(worker, frame, digest)
            header, columns = wire.recv_msg(right)
            assert header == {"type": "state"}
            assert columns["x"].tolist() == [0.0, 1.0, 2.0]
            assert worker.digest == digest
        finally:
            left.close()
            right.close()

    def test_matching_digest_ships_reference_only(self):
        worker, left, right = self._worker_pair()
        frame, digest = self._frame()
        worker.digest = digest
        try:
            executor = FleetExecutor.__new__(FleetExecutor)
            executor._sync_state(worker, frame, digest)
            assert wire.recv_msg(right) == (
                {"type": "state_ref", "digest": digest},
                {},
            )
        finally:
            left.close()
            right.close()

    def test_send_failure_marks_worker_lost(self):
        worker, left, right = self._worker_pair()
        right.close()
        left.close()
        executor = FleetExecutor.__new__(FleetExecutor)
        executor._sync_state(worker, *self._frame())
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
