"""Sweep executors: where the V-P&R sweep's chunks run.

The V-P&R sweep is one loop over a :class:`SweepExecutor` — the calling
process (:class:`InlineExecutor`) or a socket fleet of worker processes
(:class:`FleetExecutor`): ``jobs`` workers forked from the sweep's own
process, or workers started elsewhere with ``repro worker --connect``
against an explicit listen address.  The expensive part of each item is
*state*, not work description: the induced sub-netlists' flat columns
and the config.  The fleet ships that state **once** per worker (one
:mod:`repro.codec` frame, keyed by its own SHA-256), so each work item
carries only two integers.  What is shipped holds no store: stored
results are resolved in the sweep's own process before anything is
chunked, so a worker only computes.

The fleet is a transport and nothing more: it dispatches each chunk
once, and a worker that dies while taking its state, errors out, stalls
or misses its deadline returns its in-flight chunk as lost items, which
the failure rule of :mod:`repro.core.sweep` evaluates in process
(``tests/core/test_fleet.py``, ``tests/core/test_sweep_matrix.py``).
"""

from __future__ import annotations

import os
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

import numpy as np

from repro import codec, obs
from repro.core import wire
from repro.core.worker import run_worker
from repro.recovery import faults


# ----------------------------------------------------------------------
# Sweep executors: where the sweep's chunks actually run
# ----------------------------------------------------------------------
class ItemOutcome(NamedTuple):
    """What one attempt at a (cluster, candidate) work item produced.

    ``error`` is the repr of the exception that failed the attempt
    (costs are NaN then) — raised by the evaluation itself or, via
    :meth:`lost`, standing for a transport-level loss (a dead or
    vanished fleet worker), so every kind of failure flows
    into the sweep's one failure rule.  ``seconds`` is the item's
    evaluation time (its share of the batch wall).  ``recorded`` is
    what a worker *process* recorded while evaluating a run of items
    (its :func:`repro.obs.worker_payload`): it rides on the run's first
    outcome and the parent folds it in with
    :func:`repro.obs.merge_worker`.
    """

    hpwl_cost: float
    congestion_cost: float
    seconds: float
    error: Optional[str] = None
    recorded: Optional[dict] = None

    @classmethod
    def lost(cls, error: str, seconds: float = 0.0) -> "ItemOutcome":
        """A failed attempt: NaN costs, ``error`` set."""
        return cls(float("nan"), float("nan"), seconds, error)


#: A result frame's float64 columns, one value per item of its chunk.
_RESULT_COLUMNS = ("hpwl_cost", "congestion_cost", "seconds")
#: The parts a recorded payload may have, and the JSON type of each.
_RECORDED = {"counters": dict, "spans": list, "metrics": dict, "events": list}


def outcome_frame(
    outcomes: Sequence[ItemOutcome],
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """A chunk's outcomes as a result frame's header fields and
    columns (worker side): costs and seconds as float64 columns, which
    carry NaN and every bit; errors and recorded payloads in the
    header."""
    columns = {
        name: np.array([getattr(o, name) for o in outcomes], dtype=np.float64)
        for name in _RESULT_COLUMNS
    }
    fields = {
        "errors": [o.error for o in outcomes],
        "recorded": [o.recorded for o in outcomes],
    }
    return fields, columns


def _is_recorded(payload: Any) -> bool:
    return payload is None or (
        isinstance(payload, dict)
        and all(isinstance(v, _RECORDED.get(k, ())) for k, v in payload.items())
    )


def outcomes_of(
    header: Dict[str, Any], columns: Dict[str, np.ndarray], size: int
) -> List[ItemOutcome]:
    """The outcomes a result frame carries for a chunk of ``size`` items
    (parent side); ``ValueError`` unless every column holds ``size``
    float64 values and the header ``size`` well-typed errors and
    recorded payloads."""
    arrays = [columns.get(name) for name in _RESULT_COLUMNS]
    errors, recorded = header.get("errors"), header.get("recorded")
    if (
        any(a is None or a.dtype != np.float64 or a.shape != (size,) for a in arrays)
        or not (isinstance(errors, list) and isinstance(recorded, list))
        or len(errors) != size
        or len(recorded) != size
        or not all(e is None or isinstance(e, str) for e in errors)
        or not all(_is_recorded(r) for r in recorded)
    ):
        raise ValueError(f"malformed result for a chunk of {size} item(s)")
    return [
        ItemOutcome(*values)
        for values in zip(*(a.tolist() for a in arrays), errors, recorded)
    ]


class SweepExecutor:
    """Where the V-P&R sweep's chunks run.

    The sweep (:func:`repro.core.sweep.sweep_clusters`) hands an
    executor one state dict and a list of (cluster, candidate) chunks;
    the executor decides where those chunks evaluate — in the calling
    process (:class:`InlineExecutor`) or on a socket fleet of worker
    processes (:class:`FleetExecutor`).  The contract every
    implementation honours:

    * :meth:`map_chunks` yields ``(chunk_index, outcomes)`` pairs in
      completion order, ``outcomes`` being one :class:`ItemOutcome`
      per item of that chunk.  Every chunk index is yielded exactly
      once.
    * A crashed / vanished / timed-out worker never loses work
      silently: its items come back as :meth:`ItemOutcome.lost` and
      the sweep re-evaluates them in its own process — results
      therefore stay byte-identical whatever the execution substrate
      did.
    * Executor *infrastructure* failure (no fork, no bindable port,
      zero workers connected, a fleet dying mid-sweep) raises
      :class:`OSError`; the sweep re-evaluates, in its own process,
      only the items the executor had not returned.
    * The sweep's process keeps every store to itself: executors and
      their workers never touch the cache, checkpoint, or telemetry
      files.

    ``crosses_process`` says whether items evaluate outside the calling
    process: only then does the sweep ship a worker payload (its
    sub-netlists as flat snapshots, instead of its live state), do
    workers return what they recorded with their outcomes, and does
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
    """The calling process itself (``jobs=1``, and the sweep's passes
    over failed or lost items): each chunk is evaluated right where the
    sweep runs, on the live state it was handed.  Nothing is shipped,
    encoded or snapshotted and no signal handler is
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
    SSH).  It ships the sweep state once per worker as one
    :mod:`repro.codec` frame — keyed by the frame's SHA-256, so a worker
    that already holds it (a reconnect, or a second sweep over the same
    state) gets a ``state_ref`` instead — then runs a select loop:
    dispatch the next chunk to every idle worker, fold back ``result``
    frames, hand ``beat`` messages to the live monitor
    (:func:`repro.obs.worker_beat`), and police per-chunk deadlines.

    The fleet is a transport, not a second failure rule.  Each chunk is
    dispatched once.  A worker that is lost — its socket dies, a frame
    or a state send outlasts ``connect_timeout``, it answers ``error``
    or a malformed result, it misses its chunk deadline (with no item
    timeout: it sends nothing for ``connect_timeout``), or the
    ``fleet.recv`` fault site trips — is dropped, and its in-flight
    chunk comes back as :meth:`ItemOutcome.lost` outcomes for the
    sweep's in-process passes.  A handshake failure (or the
    ``fleet.connect`` fault site) drops only that worker; when no
    worker completes one, :class:`OSError` is raised and the sweep
    evaluates every item in its own process.

    Workers only compute; every store read and every durable write
    stays in the parent, so a fleet sweep's results are byte-identical
    to the inline executor's (gated by ``make fleet-smoke``).
    """

    name = "fleet"

    #: Extra seconds of per-chunk deadline beyond the worker's own
    #: item-timeout budget (covers transfer + rebuild + scheduling).
    DEADLINE_GRACE_S = 30.0

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
        self, conn: socket.socket, frame: bytes, digest: str
    ) -> Optional[_FleetWorker]:
        """Hello + state transfer for one new connection; returns the
        worker record, or None (connection dropped) on any failure —
        one bad peer never poisons the fleet.  The connection keeps
        ``connect_timeout`` as its I/O timeout for good: every later
        frame and state send must complete within it."""
        label = "?"
        try:
            conn.settimeout(self.connect_timeout)
            hello, _columns = wire.recv_msg(conn)
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
            self._sync_state(worker, frame, digest)
            if not worker.alive:
                raise wire.WireError("state transfer failed")
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
        self, worker: _FleetWorker, frame: bytes, digest: str
    ) -> None:
        """Ship the sweep state frame (or just its digest) to one
        worker."""
        try:
            if worker.digest == digest:
                wire.send_msg(
                    worker.sock, {"type": "state_ref", "digest": digest}
                )
                obs.count("vpr.fleet.state_reused")
            else:
                worker.sock.sendall(frame)
                worker.digest = digest
                obs.count("vpr.fleet.state_sent")
                obs.count("vpr.fleet.state_bytes", len(frame))
        except (wire.WireError, OSError) as exc:
            worker.alive = False
            obs.event(
                "fleet.worker_lost", worker=worker.label, error=repr(exc)
            )

    def _accept_workers(self, frame: bytes, digest: str) -> None:
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
            worker = self._handshake(conn, frame, digest)
            if worker is not None:
                self._fleet.append(worker)

    # -- dispatch loop -------------------------------------------------
    def map_chunks(self, payload, chunks, chunk_fn):
        """``payload`` is the sweep state's ``{"header", "columns"}``
        (:func:`repro.core.sweep._sweep_state`)."""
        del chunk_fn  # fleet workers run their own evaluation loop
        if self._closed:
            raise OSError("FleetExecutor is closed")
        try:
            frame = codec.encode_frame(
                {**payload["header"], "type": "state"}, payload["columns"]
            )
        except codec.FrameError as exc:  # over the frame bound
            raise OSError(f"fleet: sweep state does not fit a frame: {exc}") from exc
        digest = codec.read_prefix(frame)[1]
        if not self._forked:
            self._fork_local_workers()
        # Workers connected during a previous sweep need this sweep's
        # state too (digest-keyed: an identical state ships as a ref).
        for worker in self._fleet:
            if worker.alive:
                self._sync_state(worker, frame, digest)
        self._accept_workers(frame, digest)
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
        With no item timeout there is no budget: the deadline is then
        ``connect_timeout`` past the chunk's dispatch or the worker's
        latest beat.
        """
        if not self.item_timeout or self.item_timeout <= 0:
            return None
        return self.item_timeout * max(1, len(chunk)) + self.DEADLINE_GRACE_S

    def _lose(self, worker: _FleetWorker, reason: str, chunks) -> list:
        """Drop a worker; returns its in-flight chunk, if any, as
        ``[(index, lost outcomes)]`` for the sweep."""
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
        index, worker.chunk = worker.chunk, None
        if index is None:
            return []
        lost = ItemOutcome.lost(f"fleet: lost {worker.label}: {reason}")
        return [(index, [lost] * len(chunks[index]))]

    def _dispatch(self, worker: _FleetWorker, index: int, chunks) -> list:
        """Send chunk ``index`` to an idle worker (its only dispatch)."""
        chunk = chunks[index]
        worker.chunk = index
        try:
            wire.send_msg(
                worker.sock,
                {
                    "type": "chunk",
                    "id": index,
                    "items": [[int(c), int(k)] for c, k in chunk],
                },
            )
        except (wire.WireError, OSError) as exc:
            return self._lose(worker, repr(exc), chunks)
        budget = self._chunk_budget(chunk)
        worker.deadline = time.monotonic() + (budget or self.connect_timeout)
        fields = {"chunk": index, "items": len(chunk)}
        if budget is not None:
            fields["deadline_s"] = budget
        worker.beat("dispatch", **fields)
        return []

    def _receive(self, worker: _FleetWorker, chunks) -> list:
        """Read one message from a readable worker; returns the chunk it
        settles, or loses, as ``[(index, outcomes)]``."""
        try:
            header, columns = wire.recv_msg(worker.sock)
            mtype = header.get("type")
            if mtype == "error":
                raise wire.WireError(f"worker error: {header.get('error')}")
            if mtype == "result":
                index = worker.chunk
                # Fault site: an injected receive failure is
                # indistinguishable from a torn stream.
                faults.check("fleet.recv", key=str(header.get("id")))
                if index is None or header.get("id") != index:
                    raise wire.WireError(
                        f"result for chunk {header.get('id')!r}, "
                        f"expected {index!r}"
                    )
                outcomes = outcomes_of(header, columns, len(chunks[index]))
        except (wire.WireError, OSError, ValueError, faults.FaultInjected) as exc:
            return self._lose(worker, repr(exc), chunks)
        if mtype == "result":
            worker.chunk = None
            worker.deadline = None
            worker.beat("idle", last_chunk=index)
            return [(index, outcomes)]
        if mtype == "beat":
            fields = {
                k: v
                for k, v in header.items()
                if k not in ("type", "phase", "pid", "host", "t")
            }
            if worker.chunk is not None:
                if self._chunk_budget(chunks[worker.chunk]) is None:
                    # No chunk budget: a busy worker must be heard from
                    # at least every connect_timeout.
                    worker.deadline = time.monotonic() + self.connect_timeout
                fields.setdefault("chunk", worker.chunk)
                fields.setdefault(
                    "deadline_s", max(0.0, worker.deadline - time.monotonic())
                )
            worker.beat(header.get("phase", "?"), **fields)
        return []

    def _run_chunks(self, chunks):
        pending: deque = deque(range(len(chunks)))
        while True:
            for worker in self._fleet:
                if worker.alive and worker.chunk is None and pending:
                    yield from self._dispatch(worker, pending.popleft(), chunks)
            busy = [w for w in self._fleet if w.alive and w.chunk is not None]
            if not busy:
                # Done, or every worker is gone: what was never
                # dispatched goes to the sweep's in-process passes.
                for index in pending:
                    yield index, [
                        ItemOutcome.lost("fleet: all workers lost")
                    ] * len(chunks[index])
                return
            readable, _w, _x = select.select(
                [w.sock for w in busy], [], [], 0.25
            )
            for worker in busy:
                if worker.sock in readable:
                    yield from self._receive(worker, chunks)
            # Deadline police: a worker past its chunk budget, or silent
            # for connect_timeout when there is none, is as good as dead.
            now = time.monotonic()
            for worker in busy:
                if worker.alive and worker.chunk is not None and now > worker.deadline:
                    reason = (
                        "exceeded its deadline"
                        if self._chunk_budget(chunks[worker.chunk]) is not None
                        else f"sent nothing for {self.connect_timeout:g}s"
                    )
                    yield from self._lose(
                        worker, f"chunk {worker.chunk} {reason}", chunks
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
