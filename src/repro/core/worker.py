"""Fleet worker: a remote evaluation process for the V-P&R sweep.

A fleet worker — forked by the sweep parent's
:class:`~repro.core.fanout.FleetExecutor`, or started elsewhere with
``repro worker --connect HOST:PORT`` — dials the parent's listener and
then follows the ``repro.fleet/1`` protocol (:mod:`repro.core.wire`):

1. **hello** — the worker introduces itself (pid, hostname, and the
   content digests of any sweep states it already holds from a
   previous connection, so a reconnecting worker skips the transfer);
2. **state / state_ref** — the parent ships the pickled sweep payload
   once (the sub-netlists as :mod:`repro.netlist.snapshot` payloads —
   their ``NetlistArrays`` columns — and the config), or just its
   digest when the worker advertised it; the worker validates and
   decodes each sub (the decoded arrays are its cached flat form, so
   no netlist is ever walked here) and builds a
   :class:`~repro.core.vpr.VPRFramework`
   (:func:`repro.core.vpr._setup_worker`); a payload that fails
   validation is answered with an ``error`` frame;
3. **chunk → result** — each chunk of (cluster, candidate) items is
   evaluated by the same chunk evaluator every executor runs
   (:func:`repro.core.vpr._evaluate_chunk`: SIGALRM item timeout,
   exceptions become error outcomes), and the
   :class:`~repro.core.fanout.ItemOutcome` records stream back;
4. **beat** — item start/done heartbeats go over the same socket; the
   parent hands them to its live monitor so ``repro top`` shows
   remote workers next to local ones;
5. **shutdown** — clean exit (code 0).

The worker holds **one** live sweep state (a new ``state`` message
evicts the previous one) and only computes: it is a function of that
state and the item indices it is sent, and never sees the parent's
stores or telemetry files — every lookup and every write stays
parent-side, so a fleet sweep is bit-identical to an inline one.  A
worker SIGKILLed mid-chunk just disappears from the socket; the parent
re-dispatches the chunk elsewhere.
"""

from __future__ import annotations

import os
import pickle
import socket
import sys
import time
from typing import Any, Dict, Optional

from repro.core import wire
from repro.recovery import faults

#: The single held sweep state, keyed by content digest (bounded to
#: one entry — a new state evicts the old).
_STATES: Dict[str, Dict[str, Any]] = {}


class _SocketHeartbeat:
    """A worker's liveness beats, sent over its fleet socket.

    The V-P&R worker loop calls ``.beat`` when an item starts and
    finishes; the parent hands each record to its live monitor
    (:func:`repro.obs.worker_beat`).  Best-effort: a send failure never
    fails an item — the broken socket will surface on the next result
    send instead.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    def beat(self, phase: str, **fields: Any) -> None:
        record = {"type": "beat", "phase": phase, "t": time.time()}
        record.update(fields)
        try:
            wire.send_msg(self.sock, record)
        except Exception:
            pass


def _install_state(digest: str, blob: bytes) -> Dict[str, Any]:
    """Unpickle and set up one shipped sweep state (evicting the old)."""
    from repro.core import vpr

    # Fault site: a worker can die while taking its state; its chunks
    # then re-dispatch or fall to the sweep's retry scheduler.
    faults.check("fleet.install", key=digest)
    state = pickle.loads(blob)
    vpr._setup_worker(state)
    _STATES.clear()
    _STATES[digest] = state
    return state


def _serve_connection(sock: socket.socket) -> str:
    """Run the worker side of one connection; returns the outcome
    (``"shutdown"`` for a clean parent-initiated exit, ``"eof"`` when
    the parent vanished, ``"error"`` after a protocol failure)."""
    from repro.core import vpr

    wire.send_msg(
        sock,
        {
            "type": "hello",
            "schema": wire.SCHEMA,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "have": sorted(_STATES),
        },
    )
    heartbeat = _SocketHeartbeat(sock)
    state: Optional[Dict[str, Any]] = None
    while True:
        try:
            message = wire.recv_msg(sock)
        except wire.WireClosed:
            return "eof"
        mtype = message.get("type")
        if mtype == "shutdown":
            return "shutdown"
        if mtype == "state":
            try:
                state = _install_state(message["digest"], message["blob"])
            except Exception as exc:
                wire.send_msg(sock, {"type": "error", "error": repr(exc)})
                return "error"
            state["_heartbeat"] = heartbeat
        elif mtype == "state_ref":
            state = _STATES.get(message.get("digest", ""))
            if state is None:
                wire.send_msg(
                    sock,
                    {
                        "type": "error",
                        "error": "state_ref for a digest this worker "
                        "does not hold",
                    },
                )
                return "error"
            # Re-bind beats to this connection (the previous one died).
            state["_heartbeat"] = heartbeat
        elif mtype == "chunk":
            if state is None:
                wire.send_msg(
                    sock,
                    {"type": "error", "error": "chunk before sweep state"},
                )
                return "error"
            results = vpr._evaluate_chunk(state, message["items"])
            wire.send_msg(
                sock,
                {"type": "result", "id": message["id"], "results": results},
            )
        elif mtype == "ping":
            wire.send_msg(sock, {"type": "pong"})
        # Unknown message types are skipped (forward compatibility).


def run_worker(
    connect: str,
    reconnect: int = 0,
    reconnect_delay: float = 1.0,
    connect_timeout: float = 30.0,
    quiet: bool = False,
) -> int:
    """Dial the parent and serve sweep chunks until shutdown.

    ``reconnect`` extra connection attempts cover both a slow-starting
    parent (dial refused) and a parent that went away mid-sweep (EOF);
    a held sweep state survives reconnects, so the new connection's
    hello lets the parent skip the state transfer.  Returns a process
    exit code: 0 after a clean ``shutdown`` message, 1 otherwise.
    """
    faults.mark_worker()  # a fleet process: kill / hang faults apply
    endpoint = wire.parse_endpoint(connect)
    attempts_left = max(0, int(reconnect))
    outcome = "eof"
    while True:
        try:
            sock = socket.create_connection(endpoint, timeout=connect_timeout)
        except OSError as exc:
            if attempts_left > 0:
                attempts_left -= 1
                time.sleep(reconnect_delay)
                continue
            if not quiet:
                print(
                    f"repro worker: cannot reach {connect}: {exc}",
                    file=sys.stderr,
                )
            return 1
        sock.settimeout(None)
        if not quiet:
            print(
                f"repro worker pid={os.getpid()} connected to {connect}",
                file=sys.stderr,
            )
        try:
            outcome = _serve_connection(sock)
        except (wire.WireError, OSError):
            outcome = "eof"
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already gone
                pass
        if outcome == "shutdown":
            return 0
        if attempts_left > 0:
            attempts_left -= 1
            time.sleep(reconnect_delay)
            continue
        return 1
