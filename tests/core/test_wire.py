"""Framing guarantees of the fleet wire protocol.

The contract the fleet's fault tolerance stands on: a receiver either
gets a whole message — one :mod:`repro.codec` frame's header and
columns — or a typed error; a torn stream, a stray client, a stalled
peer or a corrupt frame can never surface as data
(``src/repro/core/wire.py``).
"""

import hashlib
import io
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import codec
from repro.core.wire import (
    WireClosed,
    WireError,
    WireTruncated,
    recv_msg,
    send_msg,
)

_PREFIX = struct.Struct("<8sQ32s")


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def _frame(envelope: bytes, blobs: bytes = b"") -> bytes:
    """A frame around arbitrary envelope bytes, with a valid checksum."""
    body = struct.pack("<I", len(envelope)) + envelope + blobs
    return _PREFIX.pack(codec.MAGIC, len(body), hashlib.sha256(body).digest()) + body


def _object_column_frame() -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(
        buffer, np.array([{"a": 1}], dtype=object), allow_pickle=True
    )
    blob = buffer.getvalue()
    envelope = json.dumps(
        {"header": {"type": "result"}, "columns": [["hpwl_cost", len(blob)]]}
    )
    return _frame(envelope.encode(), blob)


class TestRoundTrip:
    def test_single_message(self, pair):
        left, right = pair
        header = {"type": "chunk", "id": 3, "items": [[0, 1], [0, 2]]}
        send_msg(left, header)
        assert recv_msg(right) == (header, {})

    def test_many_messages_in_order(self, pair):
        left, right = pair
        sent = [
            ({"type": "beat", "seq": i}, {"x": np.arange(i, dtype=np.float64)})
            for i in range(20)
        ]
        for header, columns in sent:
            send_msg(left, header, columns)
        for header, columns in sent:
            got_header, got_columns = recv_msg(right)
            assert got_header == header
            np.testing.assert_array_equal(got_columns["x"], columns["x"])

    def test_large_payload(self, pair):
        left, right = pair
        column = np.arange(1 << 19, dtype=np.float64)  # 4 MiB
        writer = threading.Thread(
            target=send_msg, args=(left, {"type": "state"}, {"x": column})
        )
        writer.start()
        _header, columns = recv_msg(right)
        writer.join()
        assert columns["x"].tobytes() == column.tobytes()

    def test_costs_keep_every_bit(self, pair):
        left, right = pair
        costs = np.array([np.nan, -0.0, np.inf, 5e-324, 0.1 + 0.2])
        send_msg(left, {"type": "result"}, {"hpwl_cost": costs})
        _header, columns = recv_msg(right)
        assert columns["hpwl_cost"].tobytes() == costs.tobytes()


class TestTornStreams:
    def test_clean_close_between_frames(self, pair):
        left, right = pair
        send_msg(left, {"type": "shutdown"})
        assert recv_msg(right) == ({"type": "shutdown"}, {})
        left.close()
        with pytest.raises(WireClosed):
            recv_msg(right)

    def test_eof_mid_header_is_truncation(self, pair):
        left, right = pair
        left.sendall(codec.MAGIC + b"\x00\x00")  # 10 of 48 prefix bytes
        left.close()
        with pytest.raises(WireTruncated):
            recv_msg(right)

    def test_eof_mid_payload_is_truncation(self, pair):
        left, right = pair
        frame = codec.encode_frame({"type": "result"}, {})
        left.sendall(frame[:-3])
        left.close()
        with pytest.raises(WireTruncated):
            recv_msg(right)

    def test_truncated_is_not_clean_close(self, pair):
        left, right = pair
        frame = codec.encode_frame({"type": "result"}, {})
        left.sendall(frame[: codec.PREFIX_BYTES])
        left.close()
        # EOF after a complete prefix: torn frame, not WireClosed.
        with pytest.raises(WireTruncated):
            recv_msg(right)
        assert issubclass(WireTruncated, WireError)
        assert issubclass(WireClosed, WireError)

    def test_a_stalled_frame_times_out_as_a_whole(self, pair):
        """On a socket with a timeout the whole frame is due within it:
        a peer trickling a byte at a time cannot reset the clock."""
        left, right = pair
        frame = codec.encode_frame({"type": "result"}, {})
        right.settimeout(0.5)
        stop = threading.Event()

        def trickle():
            for byte in frame[:-1]:
                if stop.wait(0.1):
                    return
                left.sendall(bytes([byte]))

        writer = threading.Thread(target=trickle, daemon=True)
        writer.start()
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            recv_msg(right)
        stop.set()
        writer.join()
        assert time.monotonic() - start < 2.0
        assert right.gettimeout() == 0.5  # restored for the next frame


class TestGarbageRejection:
    def test_bad_magic(self, pair):
        left, right = pair
        left.sendall(b"HTTP/1.1" + codec.encode_frame({"type": "hello"}, {})[8:])
        with pytest.raises(WireError, match="magic"):
            recv_msg(right)

    def test_oversize_declared_length_refused(self, pair):
        left, right = pair
        # No body follows: the bound is checked before any is read.
        right.settimeout(5.0)
        left.sendall(
            _PREFIX.pack(codec.MAGIC, codec.MAX_FRAME_BYTES + 1, b"\x00" * 32)
        )
        with pytest.raises(WireError, match="exceeds"):
            recv_msg(right)

    def test_undecodable_payload(self, pair):
        left, right = pair
        left.sendall(_frame(b"\xde\xad\xbe\xef"))
        with pytest.raises(WireError, match="undecodable"):
            recv_msg(right)

    def test_non_dict_payload(self, pair):
        left, right = pair
        left.sendall(_frame(json.dumps({"header": [1, 2, 3], "columns": []}).encode()))
        with pytest.raises(WireError, match="'header' object"):
            recv_msg(right)

    def test_object_column_refused(self, pair):
        left, right = pair
        left.sendall(_object_column_frame())
        with pytest.raises(WireError, match="refused dtype"):
            recv_msg(right)


def _sample_frame() -> bytes:
    return codec.encode_frame(
        {"type": "result", "id": 4, "errors": [None, "boom"], "recorded": [None, None]},
        {
            "hpwl_cost": np.array([1.5, np.nan]),
            "congestion_cost": np.array([0.25, np.nan]),
            "seconds": np.array([0.01, 0.0]),
        },
    )


def _damaged(data: bytes, how: str, where: int, bit: int) -> bytes:
    where %= len(data)
    if how == "truncate":
        return data[:where]
    if how == "flip":
        return data[:where] + bytes([data[where] ^ (1 << bit)]) + data[where + 1 :]
    if how == "bad magic":
        return bytes((where + i * bit) % 256 for i in range(8)) + data[8:]
    if how == "oversize length":
        length = struct.pack("<Q", codec.MAX_FRAME_BYTES + 1 + where)
        return data[:8] + length + data[16:]
    if how == "object dtype":
        return _object_column_frame()
    raise AssertionError(how)


DAMAGE = st.tuples(
    st.sampled_from(
        ["truncate", "flip", "bad magic", "oversize length", "object dtype"]
    ),
    st.integers(0, 10_000),
    st.integers(0, 7),
)


class TestFuzzedFrames:
    """Whatever the bytes, the fleet's frame reader raises only the
    wire's own errors: never a codec, JSON, NumPy or index error, and
    never a hang."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(damage=DAMAGE)
    def test_damage_raises_only_wire_errors(self, damage):
        data = _sample_frame()
        broken = _damaged(data, *damage)
        if broken == data:
            return
        left, right = socket.socketpair()
        try:
            right.settimeout(5.0)  # a reader that waited for more bytes fails
            left.sendall(broken)
            left.shutdown(socket.SHUT_WR)
            with pytest.raises((WireClosed, WireTruncated, WireError)):
                recv_msg(right)
        finally:
            left.close()
            right.close()
