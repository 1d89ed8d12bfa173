"""Socket transport of the fleet protocol: one :mod:`repro.codec` frame
per message.

The distributed sweep (``FleetExecutor`` in :mod:`repro.core.fanout`
dispatching to the workers of :mod:`repro.core.worker`) speaks a tiny
protocol over TCP, schema :data:`SCHEMA` — the same "version the wire
format explicitly" discipline as the serve daemon's ``repro.serve/1``
and the monitor's ``repro.monitor/1``.  A message is one codec frame —
a JSON header whose ``type`` names it, plus named ``.npy`` columns —
the same checked, pickle-free format as a checkpoint's stage records.
This module only moves frames over a socket:

* **Torn streams are detected, never mis-parsed.**  EOF in the middle
  of a frame raises :class:`WireTruncated`; a connection closing
  cleanly *between* frames raises :class:`WireClosed`.  The parent
  maps either to "worker lost" and hands the chunk to the sweep.
* **Garbage is rejected up front.**  The codec's prefix check (magic,
  declared length against its bound) runs before any body byte is
  read; that and every later refusal of the codec is a
  :class:`WireError`.
* **A frame has a deadline.**  On a socket with a timeout, the whole
  frame must arrive within it (not each ``recv``), so a peer that
  stalls or trickles mid-frame is a ``TimeoutError`` (an ``OSError``).

:func:`send_msg` / :func:`recv_msg` work on anything with
``sendall`` / ``recv`` (a socket, one end of ``socket.socketpair()``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro import codec

#: Protocol schema tag; every message dict carries it implicitly via
#: the hello handshake (the first message each side validates).
SCHEMA = "repro.fleet/2"


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
    """Protocol violation: a frame the codec refuses."""


class WireClosed(WireError):
    """The peer closed the connection cleanly between frames."""


class WireTruncated(WireError):
    """The stream ended mid-frame (torn write / killed peer)."""


def _recv_exact(sock: Any, n: int, deadline: Optional[float]) -> bytes:
    """Read exactly ``n`` bytes by ``deadline`` (monotonic; None waits
    forever) or raise on a short stream.

    ``recv`` may return any prefix, so loop until the bytes are whole.
    Zero bytes before anything arrived means a clean close
    (:class:`WireClosed` — only meaningful at a frame boundary, which
    is why :func:`recv_frame` re-raises it as truncation mid-frame).
    """
    chunks = []
    got = 0
    while got < n:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"frame incomplete: {got} of {n} bytes in time")
            sock.settimeout(left)
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                raise WireClosed("connection closed by peer")
            raise WireTruncated(f"stream ended after {got} of {n} frame bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_msg(
    sock: Any,
    header: Mapping[str, Any],
    columns: Optional[Mapping[str, np.ndarray]] = None,
) -> None:
    """Send one message: ``header`` (JSON-able) and ``columns``."""
    try:
        frame = codec.encode_frame(header, columns or {})
    except codec.FrameError as exc:
        raise WireError(str(exc)) from exc
    sock.sendall(frame)


def recv_frame(sock: Any) -> bytes:
    """Receive one whole frame, its prefix checked before the body is
    read.  Raises :class:`WireClosed` on a clean close at a frame
    boundary, :class:`WireTruncated` when the stream dies mid-frame and
    :class:`WireError` for a bad magic or an oversized length; on a
    socket with a timeout, the whole frame must arrive within it."""
    timeout = sock.gettimeout()
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        prefix = _recv_exact(sock, codec.PREFIX_BYTES, deadline)
        try:
            length, _digest = codec.read_prefix(prefix)
        except codec.FrameError as exc:
            raise WireError(str(exc)) from exc
        try:
            return prefix + _recv_exact(sock, length, deadline)
        except WireClosed as exc:
            # EOF after a prefix is a torn frame, not a clean close.
            raise WireTruncated(str(exc)) from exc
    finally:
        if deadline is not None:
            sock.settimeout(timeout)


def decode(frame: bytes) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """``(header, columns)`` of a received frame; :class:`WireError`
    when the codec refuses it."""
    try:
        return codec.decode_frame(frame)
    except codec.FrameError as exc:
        raise WireError(f"undecodable frame: {exc}") from exc


def recv_msg(sock: Any) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Receive one message as ``(header, columns)``: a receiver never
    sees a partial or corrupt message as data."""
    return decode(recv_frame(sock))
