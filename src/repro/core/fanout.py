"""Sweep executors: where the V-P&R sweep's chunks run.

The V-P&R sweep is one loop over a :class:`SweepExecutor` — the calling
process (:class:`InlineExecutor`) or a socket fleet of worker processes
(:class:`FleetExecutor`): ``jobs`` workers forked from the sweep's own
process, or workers started elsewhere with ``repro worker --connect``
against an explicit listen address.  The expensive part of each item is
*state*, not work description: the induced sub-netlists' flat columns
and the config.  The fleet ships that state **once** per worker (one
pickled, digest-keyed blob), so each work item carries only two
integers.  What is shipped holds no store: stored results are resolved
in the sweep's own process before anything is chunked, so a worker only
computes.

A worker that dies while taking its state or mid-chunk simply loses its
chunk to re-dispatch or to the sweep's retry scheduler
(``tests/core/test_fleet.py``, ``tests/core/test_sweep_matrix.py``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import select
import signal
import socket
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.core import wire
from repro.core.worker import run_worker
from repro.recovery import faults


# ----------------------------------------------------------------------
# Sweep executors: where the sweep's chunks actually run
# ----------------------------------------------------------------------
class WorkerEnvelope(NamedTuple):
    """What a worker *process* recorded while evaluating a run of items:
    its :func:`repro.obs.worker_payload` (None with every output off).
    Only executors that cross a process boundary produce one; it rides
    on the run's first :class:`ItemOutcome` and the parent folds it in
    with :func:`repro.obs.merge_worker`."""

    recorded: Optional[dict]


class ItemOutcome(NamedTuple):
    """What one attempt at a (cluster, candidate) work item produced.

    ``error`` is the repr of the exception that failed the attempt
    (costs are NaN then) — raised by the evaluation itself or, via
    :meth:`lost`, standing for a transport-level loss (a dead or
    vanished fleet worker), so every kind of failure flows
    into the sweep's one retry scheduler.  ``seconds`` is the item's
    evaluation time (its share of the batch wall).
    """

    hpwl_cost: float
    congestion_cost: float
    seconds: float
    error: Optional[str] = None
    envelope: Optional[WorkerEnvelope] = None

    @classmethod
    def lost(cls, error: str, seconds: float = 0.0) -> "ItemOutcome":
        """A failed attempt: NaN costs, ``error`` set."""
        return cls(float("nan"), float("nan"), seconds, error)


class SweepExecutor:
    """Where the V-P&R sweep's chunks run.

    The sweep (:meth:`repro.core.vpr.VPRFramework.sweep_clusters`)
    hands an executor one state dict and a list of (cluster,
    candidate) chunks; the executor decides where those chunks
    evaluate — in the calling process (:class:`InlineExecutor`) or on
    a socket fleet of worker processes (:class:`FleetExecutor`).  The
    contract every implementation honours:

    * :meth:`map_chunks` yields ``(chunk_index, outcomes)`` pairs in
      completion order, ``outcomes`` being one :class:`ItemOutcome`
      per item of that chunk.  Every chunk index is yielded exactly
      once.
    * A crashed / vanished / timed-out worker never loses work
      silently: its items come back as :meth:`ItemOutcome.lost` and
      the sweep's bounded retry scheduler re-evaluates them — results
      therefore stay byte-identical whatever the execution substrate
      did.
    * Executor *infrastructure* failure (no fork, no bindable port,
      zero workers connected) raises :class:`OSError`, which the sweep
      answers by running the same loop on the inline executor.
    * The sweep's process keeps every store to itself: executors and
      their workers never touch the cache, checkpoint, or telemetry
      files.

    ``crosses_process`` says whether items evaluate outside the calling
    process: only then does the sweep ship a worker payload (its
    sub-netlists as flat snapshots, instead of its live state), do
    workers wrap their results in a :class:`WorkerEnvelope`, and does
    ``item_timeout`` (seconds, or None) bound an item with SIGALRM.
    """

    name = "base"
    crosses_process = True
    item_timeout: Optional[float] = None

    def width(self) -> int:
        """Worker parallelism (used to auto-size chunks)."""
        raise NotImplementedError

    def auto_chunk_size(self, items: int, grid: int) -> int:
        """Chunk size for ``items`` pending work items of a ``grid``-
        candidate sweep when the config names none: about four task
        waves per worker."""
        return max(1, -(-items // (4 * self.width())))

    def map_chunks(
        self,
        state: Dict[str, Any],
        chunks: Sequence[Sequence[Tuple[int, int]]],
        chunk_fn: Callable[[Dict[str, Any], Sequence], List[ItemOutcome]],
    ) -> Iterator[Tuple[int, List[ItemOutcome]]]:
        """Run ``chunk_fn(state, chunk)`` for every chunk; yield
        ``(chunk_index, outcomes)`` as each completes."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (idempotent)."""


class InlineExecutor(SweepExecutor):
    """The calling process itself (``jobs=1``, and the stand-in when
    the fleet is unavailable): each chunk is evaluated right where the
    sweep runs, on the live state it was handed.  Nothing is shipped,
    pickled or snapshotted and no signal handler is
    installed, so it works from any thread."""

    name = "inline"
    crosses_process = False

    def width(self) -> int:
        return 1

    def auto_chunk_size(self, items: int, grid: int) -> int:
        # One cluster's grid per chunk: its candidates stay one
        # lockstep batch, and progress lands cluster by cluster.
        return max(1, grid)

    def map_chunks(self, state, chunks, chunk_fn):
        for index, chunk in enumerate(chunks):
            yield index, chunk_fn(state, chunk)


@dataclass
class _FleetWorker:
    """Parent-side record of one connected fleet worker."""

    sock: socket.socket
    pid: int
    host: str
    label: str
    digest: Optional[str] = None
    chunk: Optional[int] = None
    dispatched_at: float = 0.0
    deadline: Optional[float] = None
    alive: bool = True

    def beat(self, phase: str, **fields: Any) -> None:
        """This worker's latest liveness beat, for the live monitor."""
        obs.worker_beat(
            self.label, phase, pid=self.pid, host=self.host, **fields
        )


class FleetExecutor(SweepExecutor):
    """Distribute sweep chunks to socket-connected worker processes.

    With ``listen=None`` the parent binds loopback on an ephemeral port
    and forks ``workers`` local workers that dial it; with an explicit
    ``HOST:PORT`` it binds there and waits for ``workers`` processes
    started elsewhere (``repro worker --connect``, by hand or over
    SSH).  It ships the pickled sweep payload once per worker —
    content-digest-keyed, so a worker that already holds the state (a
    reconnect, or a second sweep over the same payload) gets a
    ``state_ref`` instead of the blob — then runs a select loop:
    dispatch a chunk to every idle worker, fold back ``result``
    messages, hand ``beat`` messages to the live monitor
    (:func:`repro.obs.worker_beat`), and police per-chunk deadlines.

    Fault containment:

    * a worker whose socket dies / times out / trips the
      ``fleet.recv`` fault site is *lost*: its in-flight chunk is
      re-queued for another worker (at most :attr:`MAX_DISPATCH` total
      dispatches per chunk), and past that cap — or with no workers
      left — the chunk degrades to lost outcomes for the sweep's
      retry scheduler;
    * a handshake failure (or the ``fleet.connect`` fault site) drops
      only that worker; zero surviving workers raises :class:`OSError`
      → the sweep re-runs on the inline executor;
    * once every queued chunk is dispatched, an idle worker duplicates
      the longest-running in-flight chunk (straggler re-dispatch,
      first result wins — items are idempotent by construction).

    Workers only compute; every store read and every durable write
    stays in the parent, so a fleet sweep's results are byte-identical
    to the inline executor's (gated by ``make fleet-smoke``).
    """

    name = "fleet"

    #: Extra seconds of per-chunk deadline beyond the worker's own
    #: item-timeout budget (covers transfer + rebuild + scheduling).
    DEADLINE_GRACE_S = 30.0

    #: Dispatches allowed per chunk (first run + one re-dispatch).
    MAX_DISPATCH = 2

    #: An in-flight chunk older than this many median chunk walls is a
    #: straggler an idle worker duplicates.
    STRAGGLER_FACTOR = 4.0

    def __init__(
        self,
        workers: int = 2,
        listen: Optional[str] = None,
        connect_timeout: float = 60.0,
        item_timeout: Optional[float] = None,
        worker_env: Optional[Sequence[Optional[Dict[str, str]]]] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.listen = listen
        self.connect_timeout = connect_timeout
        self.item_timeout = item_timeout
        self.worker_env = worker_env
        # Bind eagerly: an unparsable or unbindable endpoint is
        # infrastructure failure (OSError) before any sweep work happens.
        try:
            endpoint = wire.parse_endpoint(listen or "127.0.0.1:0")
        except ValueError as exc:
            raise OSError(f"fleet listen: {exc}") from exc
        self._server = socket.create_server(endpoint)
        #: Forked local workers' pids, in fork order, and the exit
        #: codes of those already reaped.
        self._children: List[int] = []
        self._exits: Dict[int, Optional[int]] = {}
        self._forked = listen is not None  # external workers: fork none
        self._fleet: List[_FleetWorker] = []
        self._closed = False
        #: Exit codes of forked workers, recorded by :meth:`close`
        #: (``None`` = had to be killed); benchmarks assert on these.
        self.worker_exit_codes: List[Optional[int]] = []

    @property
    def endpoint(self) -> str:
        """The bound ``host:port`` workers should ``--connect`` to."""
        host, port = self._server.getsockname()[:2]
        return f"{host}:{port}"

    def width(self) -> int:
        return self.workers

    # -- worker lifecycle ----------------------------------------------
    def _fork_local_workers(self) -> None:
        """Fork one worker per slot, each dialling this listener.  A
        child inherits the imported program (no interpreter start) and
        never returns: it drops the inherited live monitor (whose lock
        the parent's monitor thread may have held at the fork), closes
        its copy of the listener, applies its ``worker_env`` entry
        (re-arming ``REPRO_FAULTS`` from it), runs
        :func:`repro.core.worker.run_worker` and leaves through
        ``os._exit``.  A platform without fork raises OSError."""
        if not hasattr(os, "fork"):
            raise OSError("no fork on this platform: no local fleet workers")
        self._forked = True
        endpoint = self.endpoint
        envs = list(self.worker_env or ())
        for index in range(self.workers):
            env = envs[index] if index < len(envs) else None
            for stream in (sys.stdout, sys.stderr):
                stream.flush()
            pid = os.fork()
            if pid:
                self._children.append(pid)
                continue
            code = 1
            try:
                obs.session().monitor = None
                self._server.close()
                if env:
                    os.environ.update(env)
                    faults.configure(os.environ.get(faults.ENV_VAR))
                code = run_worker(endpoint, quiet=True)
            except BaseException:
                # Never re-raised: the child must not unwind into the
                # parent's sweep.
                traceback.print_exc()
            finally:
                try:
                    sys.stderr.flush()
                finally:
                    os._exit(code)

    def _exited(self, pid: int) -> bool:
        """Reap ``pid`` if it has exited (its code lands in
        ``_exits``: negative for a killing signal)."""
        if pid not in self._exits:
            try:
                done, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # reaped elsewhere: code unknown
                self._exits[pid] = None
            else:
                if done:
                    self._exits[pid] = os.waitstatus_to_exitcode(status)
        return pid in self._exits

    def _handshake(
        self, conn: socket.socket, blob: bytes, digest: str
    ) -> Optional[_FleetWorker]:
        """Hello + state transfer for one new connection; returns the
        worker record, or None (connection dropped) on any failure —
        one bad peer never poisons the fleet."""
        label = "?"
        try:
            conn.settimeout(self.connect_timeout)
            hello = wire.recv_msg(conn)
            if (
                hello.get("type") != "hello"
                or hello.get("schema") != wire.SCHEMA
            ):
                raise wire.WireError(
                    f"unexpected handshake {hello.get('type')!r} "
                    f"(schema {hello.get('schema')!r}, "
                    f"expected {wire.SCHEMA!r})"
                )
            pid = int(hello.get("pid", 0))
            host = str(hello.get("host", "?"))
            label = f"{host}:{pid}"
            # Fault site: prove a failed handshake drops one worker
            # (and that zero survivors degrade to the inline executor).
            faults.check("fleet.connect", key=label)
            worker = _FleetWorker(sock=conn, pid=pid, host=host, label=label)
            if digest in hello.get("have", ()):
                worker.digest = digest
            self._sync_state(worker, blob, digest)
            if not worker.alive:
                raise wire.WireError("state transfer failed")
            conn.settimeout(None)
        except Exception as exc:
            obs.count("vpr.fleet.connect_failed")
            obs.event(
                "fleet.connect_failed", worker=label, error=repr(exc)
            )
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            return None
        worker.beat("connect")
        obs.event("fleet.worker_connected", worker=label)
        return worker

    def _sync_state(
        self, worker: _FleetWorker, blob: bytes, digest: str
    ) -> None:
        """Ship the sweep state (or just its digest) to one worker."""
        try:
            if worker.digest == digest:
                wire.send_msg(
                    worker.sock, {"type": "state_ref", "digest": digest}
                )
                obs.count("vpr.fleet.state_reused")
            else:
                wire.send_msg(
                    worker.sock,
                    {"type": "state", "digest": digest, "blob": blob},
                )
                worker.digest = digest
                obs.count("vpr.fleet.state_sent")
                obs.count("vpr.fleet.state_bytes", len(blob))
        except (wire.WireError, OSError) as exc:
            worker.alive = False
            obs.event(
                "fleet.worker_lost", worker=worker.label, error=repr(exc)
            )

    def _accept_workers(self, blob: bytes, digest: str) -> None:
        """Accept handshakes until the fleet is at strength, or the
        connect timeout passes, or every forked worker has either
        connected or exited (a dropped handshake's child exits, so
        nothing is left to wait for; external workers get the
        deadline)."""
        deadline = time.monotonic() + self.connect_timeout
        self._server.settimeout(0.2)
        while len([w for w in self._fleet if w.alive]) < self.workers:
            if time.monotonic() >= deadline:
                break
            connected = {w.pid for w in self._fleet if w.alive}
            if self._children and all(
                pid in connected or self._exited(pid) for pid in self._children
            ):
                break
            try:
                conn, _addr = self._server.accept()
            except TimeoutError:
                continue
            worker = self._handshake(conn, blob, digest)
            if worker is not None:
                self._fleet.append(worker)

    # -- dispatch loop -------------------------------------------------
    def map_chunks(self, payload, chunks, chunk_fn):
        del chunk_fn  # fleet workers run their own evaluation loop
        if self._closed:
            raise OSError("FleetExecutor is closed")
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        if not self._forked:
            self._fork_local_workers()
        # Workers connected during a previous sweep need this sweep's
        # state too (digest-keyed: an identical payload ships as a ref).
        for worker in self._fleet:
            if worker.alive:
                self._sync_state(worker, blob, digest)
        self._accept_workers(blob, digest)
        fleet = [w for w in self._fleet if w.alive]
        if not fleet:
            raise OSError(
                f"no fleet worker completed the handshake on "
                f"{self.endpoint} within {self.connect_timeout:g}s"
            )
        obs.event(
            "fleet.sweep_start",
            workers=len(fleet),
            chunks=len(chunks),
            endpoint=self.endpoint,
        )
        yield from self._run_chunks(chunks)

    def _chunk_budget(self, chunk: Sequence) -> Optional[float]:
        """Wall-clock deadline for one chunk on one worker, or None.

        The worker already bounds each *item* with SIGALRM; the
        parent-side deadline is the backstop for a worker that died or
        hung outside an item (deadline tracking replaces SIGALRM at
        this boundary — there is no signal to deliver to a remote
        process).  Budget = every item hitting its timeout, plus grace.
        """
        if not self.item_timeout or self.item_timeout <= 0:
            return None
        return self.item_timeout * max(1, len(chunk)) + self.DEADLINE_GRACE_S

    def _lose_worker(
        self,
        worker: _FleetWorker,
        reason: str,
        pending: deque,
        attempts: List[int],
        done: List[bool],
        abandoned: List[int],
    ) -> None:
        """Drop a worker; re-queue or abandon its in-flight chunk."""
        worker.alive = False
        try:
            worker.sock.close()
        except OSError:  # pragma: no cover
            pass
        obs.count("vpr.fleet.worker_lost")
        obs.event(
            "fleet.worker_lost",
            worker=worker.label,
            error=reason,
            chunk=worker.chunk,
        )
        worker.beat("lost", error=reason)
        index = worker.chunk
        worker.chunk = None
        if index is None or done[index]:
            return
        still_running = any(
            o.alive and o.chunk == index for o in self._fleet
        )
        if still_running:
            return  # a duplicate dispatch is still computing it
        survivors = any(o.alive for o in self._fleet)
        if survivors and attempts[index] < self.MAX_DISPATCH:
            pending.appendleft(index)
            obs.count("vpr.fleet.redispatch")
            obs.event("fleet.redispatch", chunk=index)
        else:
            abandoned.append(index)

    def _pick_chunk(
        self,
        pending: deque,
        attempts: List[int],
        done: List[bool],
        chunk_walls: List[float],
        worker: _FleetWorker,
        now: float,
    ) -> Optional[int]:
        """Next chunk for an idle worker: queued work first, then a
        straggler duplicate once the queue is dry."""
        while pending:
            index = pending.popleft()
            if not done[index]:
                return index
        if len(chunk_walls) < 3:
            return None
        walls = sorted(chunk_walls)
        median = walls[len(walls) // 2]
        threshold = max(1.0, self.STRAGGLER_FACTOR * median)
        best: Optional[_FleetWorker] = None
        for other in self._fleet:
            index = other.chunk
            if not other.alive or index is None or done[index]:
                continue
            if other is worker or attempts[index] >= self.MAX_DISPATCH:
                continue
            if now - other.dispatched_at < threshold:
                continue
            if best is None or other.dispatched_at < best.dispatched_at:
                best = other
        if best is None:
            return None
        obs.count("vpr.fleet.straggler_dup")
        obs.event(
            "fleet.straggler_dup", chunk=best.chunk, slow_worker=best.label
        )
        return best.chunk

    def _run_chunks(self, chunks):
        pending: deque = deque(range(len(chunks)))
        attempts = [0] * len(chunks)
        done = [False] * len(chunks)
        chunk_walls: List[float] = []
        abandoned: List[int] = []
        remaining = len(chunks)
        while remaining > 0:
            now = time.monotonic()
            alive = [w for w in self._fleet if w.alive]
            if not alive:
                # Every worker is gone: degrade the rest of the sweep
                # to lost outcomes for the sweep's retry scheduler.
                for index in range(len(chunks)):
                    if not done[index]:
                        done[index] = True
                        yield index, [
                            ItemOutcome.lost("fleet: all workers lost")
                        ] * len(chunks[index])
                        remaining -= 1
                return
            # Dispatch to every idle worker.
            for worker in alive:
                if worker.chunk is not None:
                    continue
                index = self._pick_chunk(
                    pending, attempts, done, chunk_walls, worker, now
                )
                if index is None:
                    continue
                attempts[index] += 1
                budget = self._chunk_budget(chunks[index])
                try:
                    wire.send_msg(
                        worker.sock,
                        {
                            "type": "chunk",
                            "id": index,
                            "items": list(chunks[index]),
                        },
                    )
                except (wire.WireError, OSError) as exc:
                    worker.chunk = index  # charge the loss path
                    self._lose_worker(
                        worker, repr(exc), pending, attempts, done, abandoned
                    )
                    continue
                worker.chunk = index
                worker.dispatched_at = now
                worker.deadline = None if budget is None else now + budget
                fields = {"chunk": index, "items": len(chunks[index])}
                if budget is not None:
                    fields["deadline_s"] = budget
                worker.beat("dispatch", **fields)
            # Drain abandoned chunks (loss path may have added some).
            for index in abandoned:
                if not done[index]:
                    done[index] = True
                    yield index, [
                        ItemOutcome.lost("fleet: chunk dispatch budget exhausted")
                    ] * len(chunks[index])
                    remaining -= 1
            abandoned.clear()
            busy = [w for w in self._fleet if w.alive]
            if not busy:
                continue
            readable, _w, _x = select.select(
                [w.sock for w in busy], [], [], 0.25
            )
            ready = {id(w.sock): w for w in busy}
            for sock in readable:
                worker = ready[id(sock)]
                try:
                    message = wire.recv_msg(sock)
                    if message.get("type") == "result":
                        # Fault site: an injected receive failure is
                        # indistinguishable from a torn stream — the
                        # chunk must re-dispatch elsewhere.
                        faults.check(
                            "fleet.recv", key=str(message.get("id"))
                        )
                except (wire.WireError, OSError, faults.FaultInjected) as exc:
                    self._lose_worker(
                        worker, repr(exc), pending, attempts, done, abandoned
                    )
                    continue
                mtype = message.get("type")
                if mtype == "beat":
                    fields = {
                        k: v
                        for k, v in message.items()
                        if k not in ("type", "phase", "pid", "host", "t")
                    }
                    if worker.chunk is not None:
                        fields.setdefault("chunk", worker.chunk)
                        if worker.deadline is not None:
                            fields.setdefault(
                                "deadline_s",
                                max(0.0, worker.deadline - time.monotonic()),
                            )
                    worker.beat(message.get("phase", "?"), **fields)
                elif mtype == "result":
                    index = int(message.get("id", -1))
                    results = message.get("results") or []
                    wall = time.monotonic() - worker.dispatched_at
                    worker.chunk = None
                    worker.deadline = None
                    worker.beat("idle", last_chunk=index)
                    if 0 <= index < len(chunks) and not done[index]:
                        if len(results) != len(chunks[index]):
                            # A malformed result is a lost chunk, not
                            # corrupt data in the sweep.
                            results = [
                                ItemOutcome.lost(
                                    "fleet: malformed result from "
                                    + worker.label
                                )
                            ] * len(chunks[index])
                        chunk_walls.append(wall)
                        done[index] = True
                        yield index, results
                        remaining -= 1
                    # else: duplicate from a straggler race — ignored.
                elif mtype == "error":
                    self._lose_worker(
                        worker,
                        str(message.get("error", "worker error")),
                        pending,
                        attempts,
                        done,
                        abandoned,
                    )
            # Deadline police: a silent worker past its chunk budget is
            # as good as dead — re-dispatch its work elsewhere.
            now = time.monotonic()
            for worker in [w for w in self._fleet if w.alive]:
                if (
                    worker.chunk is not None
                    and worker.deadline is not None
                    and now > worker.deadline
                ):
                    self._lose_worker(
                        worker,
                        f"fleet: chunk {worker.chunk} exceeded its "
                        f"deadline",
                        pending,
                        attempts,
                        done,
                        abandoned,
                    )

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Shut the fleet down: polite shutdown message, close
        sockets, reap the forked workers (killed when they miss a 10 s
        bound)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._fleet:
            if worker.alive:
                try:
                    wire.send_msg(worker.sock, {"type": "shutdown"})
                except Exception:
                    pass
            try:
                worker.sock.close()
            except OSError:  # pragma: no cover
                pass
            worker.beat("shutdown")
        self._fleet.clear()
        try:
            self._server.close()
        except OSError:  # pragma: no cover
            pass
        deadline = time.monotonic() + 10.0
        for pid in self._children:
            while not self._exited(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if not self._exited(pid):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                self._exits[pid] = None
            self.worker_exit_codes.append(self._exits[pid])
        self._children.clear()
