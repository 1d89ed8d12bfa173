"""Fleet worker: a remote evaluation process for the V-P&R sweep.

A fleet worker — forked by the sweep parent's
:class:`~repro.core.fanout.FleetExecutor`, or started elsewhere with
``repro worker --connect HOST:PORT`` — dials the parent's listener and
then follows the ``repro.fleet/2`` protocol (:mod:`repro.core.wire`),
every message one :mod:`repro.codec` frame:

1. **hello** — the worker introduces itself (pid, hostname, and the
   digests of any sweep state it already holds from a previous
   connection, so a reconnecting worker skips the transfer);
2. **state / state_ref** — the parent ships the sweep state once as
   one frame (the config's result fingerprint, and each sub-netlist as
   a :mod:`repro.netlist.snapshot` header plus its ``NetlistArrays``
   columns), keyed by the frame's own SHA-256, or just that digest
   when the worker advertised it; the worker validates and decodes
   each sub's columns (no object view is built, so no netlist is ever
   walked here) and builds a
   :class:`~repro.core.vpr.VPRFramework`
   (:func:`repro.core.sweep._setup_worker`); a state that fails
   validation is answered with an ``error`` frame and the connection
   ends;
3. **chunk → result** — each chunk of (cluster, candidate) items is
   evaluated by the same chunk evaluator every executor runs
   (:func:`repro.core.sweep._evaluate_chunk`: SIGALRM item timeout,
   exceptions become error outcomes); costs and seconds go back as
   float64 columns, errors and what this process recorded in the
   header;
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
hands its chunk to the sweep, which evaluates it in process.
"""

from __future__ import annotations

import os
import socket
import sys
import time
from typing import Any, Dict, Optional

from repro import codec
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


def _install_state(
    digest: str, header: Dict[str, Any], columns: Dict[str, Any]
) -> Dict[str, Any]:
    """Set up one shipped sweep state (evicting the old)."""
    from repro.core import sweep

    # Fault site: a worker can die while taking its state; its chunks
    # then fall to the sweep's in-process passes.
    faults.check("fleet.install", key=digest)
    state = sweep._setup_worker(header, columns)
    _STATES.clear()
    _STATES[digest] = state
    return state


def _serve_connection(sock: socket.socket) -> str:
    """Run the worker side of one connection; returns the outcome
    (``"shutdown"`` for a clean parent-initiated exit, ``"eof"`` when
    the parent vanished, ``"error"`` after a protocol failure)."""
    from repro.core import sweep
    from repro.core.fanout import outcome_frame

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
            frame = wire.recv_frame(sock)
        except wire.WireClosed:
            return "eof"
        header, columns = wire.decode(frame)
        mtype = header.get("type")
        if mtype == "shutdown":
            return "shutdown"
        if mtype == "state":
            try:
                state = _install_state(codec.read_prefix(frame)[1], header, columns)
            except Exception as exc:
                wire.send_msg(sock, {"type": "error", "error": repr(exc)})
                return "error"
        elif mtype == "state_ref":
            state = _STATES.get(header.get("digest"))
        elif mtype != "chunk":
            continue  # unknown types are skipped (forward compatibility)
        if state is None:
            wire.send_msg(
                sock, {"type": "error", "error": f"{mtype} without a held sweep state"}
            )
            return "error"
        if mtype == "chunk":
            results = sweep._evaluate_chunk(state, header["items"])
            fields, result_columns = outcome_frame(results)
            wire.send_msg(
                sock, {"type": "result", "id": header["id"], **fields}, result_columns
            )
        else:
            # Beats go to this connection (a previous one may have died).
            state["_heartbeat"] = heartbeat


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
