"""Length-prefixed message framing for the fleet protocol.

The distributed sweep (``FleetExecutor`` in :mod:`repro.core.fanout`
dispatching to the workers of :mod:`repro.core.worker`) speaks a tiny
stdlib-only protocol over TCP, schema :data:`SCHEMA` — the same
"version the wire format explicitly" discipline as the serve daemon's
``repro.serve/1`` and the monitor's ``repro.monitor/1``.

One frame on the wire is::

    MAGIC (4 bytes) | length (8 bytes, big-endian) | payload

and a *message* is one pickled dict per frame.  Framing properties the
fleet relies on:

* **Torn streams are detected, never mis-parsed.**  EOF in the middle
  of a header or payload raises :class:`WireTruncated`; a connection
  closing cleanly *between* frames raises :class:`WireClosed`.  The
  parent maps either to "worker lost" and re-dispatches the chunk —
  a half-written result can never be folded into the sweep.
* **Garbage is rejected up front.**  A frame not starting with the
  magic (a stray client, protocol drift) raises :class:`WireError`
  before any payload is read, and an absurd declared length
  (> :data:`MAX_FRAME_BYTES`) is refused rather than allocated.
* **Pickle stays inside the trust boundary.**  Frames carry pickled
  payloads because both ends are the same codebase on hosts the user
  already controls.  The fleet listener binds loopback by default; binding
  a routable address is an explicit operator decision
  (``docs/performance.md``).

:func:`send_msg` / :func:`recv_msg` work on anything with
``sendall`` / ``recv`` (a socket, one end of ``socket.socketpair()``),
which is how ``tests/netlist/test_snapshot_wire.py`` round-trips a
full design snapshot over a real socketpair.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, Tuple

#: Protocol schema tag; every message dict carries it implicitly via
#: the hello handshake (the first message each side validates).
SCHEMA = "repro.fleet/1"

#: Frame magic: rejects non-fleet peers before any length is trusted.
MAGIC = b"RFL1"

#: Header layout: magic + unsigned 64-bit big-endian payload length.
_HEADER = struct.Struct(">4sQ")

#: Upper bound on one frame's payload.  Sweep states for real designs
#: are tens of MiB; 4 GiB leaves headroom while refusing to allocate
#: for a corrupt length field.
MAX_FRAME_BYTES = 4 << 30


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)`` (bracketed IPv6 accepted): the
    one parser of the fleet's listen and connect endpoints."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be HOST:PORT, got {text!r}")
    try:
        return host.strip("[]"), int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in endpoint {text!r}") from None


class WireError(RuntimeError):
    """Protocol violation: bad magic, oversized frame, unpicklable."""


class WireClosed(WireError):
    """The peer closed the connection cleanly between frames."""


class WireTruncated(WireError):
    """The stream ended mid-frame (torn write / killed peer)."""


def _recv_exact(sock: Any, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise on a short stream.

    ``recv`` may return any prefix, so loop until the frame is whole.
    Zero bytes before anything arrived means a clean close
    (:class:`WireClosed` — only meaningful at a frame boundary, which
    is why :func:`recv_msg` re-raises it as truncation mid-frame).
    """
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                raise WireClosed("connection closed by peer")
            raise WireTruncated(
                f"stream ended after {got} of {n} frame bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_msg(sock: Any, message: Dict[str, Any]) -> None:
    """Frame and send one message dict."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    sock.sendall(_HEADER.pack(MAGIC, len(payload)) + payload)


def recv_msg(sock: Any) -> Dict[str, Any]:
    """Receive one framed message dict.

    Raises :class:`WireClosed` on a clean close at a frame boundary,
    :class:`WireTruncated` when the stream dies mid-frame, and
    :class:`WireError` for bad magic / oversize / undecodable payloads
    — a receiver never sees a partial or corrupt message as data.
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    try:
        payload = _recv_exact(sock, length)
    except WireClosed as exc:
        # EOF after a header is a torn frame, not a clean close.
        raise WireTruncated(str(exc)) from exc
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise WireError(f"undecodable frame payload: {exc!r}") from exc
    if not isinstance(message, dict):
        raise WireError(
            f"frame payload is {type(message).__name__}, expected dict"
        )
    return message
