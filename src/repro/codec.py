"""One frame: a JSON header plus named ``.npy`` columns, no pickle.

Records that cross a trust boundary — a checkpoint's stage records, the
shared cache's stage entries, every message of the worker fleet
(:mod:`repro.core.wire`) — are encoded as one length-prefixed,
checksummed frame::

    MAGIC (8 bytes) | body length (u64 LE) | SHA-256 of body (32 bytes) | body
    body = envelope length (u32 LE) | envelope JSON | column bytes

The envelope is ``{"header": {...}, "columns": [[name, nbytes], ...]}``
and the column bytes are the listed ``.npy`` payloads back to back.

:func:`decode_frame` validates everything before it allocates: the
magic, the declared body length against the bytes actually present,
the checksum, the envelope's shape, each column's ``.npy`` header and
its byte count against its declared shape.  Only boolean, integer and
floating-point columns are accepted, read without ``allow_pickle``, so
an object array (the one ``.npy`` form that runs code on load) is
refused before any of it is parsed.  Every failure is a
:class:`FrameError` naming what was wrong.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from typing import Any, Dict, Mapping, Tuple

import numpy as np

__all__ = [
    "FrameError", "MAGIC", "PREFIX_BYTES", "decode_frame", "encode_frame",
    "read_prefix",
]

MAGIC = b"REPROFR1"
_PREFIX = struct.Struct("<8sQ32s")
#: Bytes ahead of a frame's body: magic, body length, body SHA-256.
PREFIX_BYTES = _PREFIX.size
_ENVELOPE = struct.Struct("<I")
#: Column dtype kinds a frame may carry: bool, signed, unsigned, float.
_KINDS = "biuf"
#: Upper bound on one frame's body (a 1M-instance design snapshot is
#: well under this).
MAX_FRAME_BYTES = 1 << 31


class FrameError(ValueError):
    """Bytes that are not a well-formed frame."""


def encode_frame(
    header: Mapping[str, Any], columns: Mapping[str, np.ndarray]
) -> bytes:
    """``header`` (JSON-able) and ``columns`` as one frame."""
    blobs = []
    listing = []
    for name, column in columns.items():
        array = np.asarray(column)
        if array.dtype.kind not in _KINDS:
            raise FrameError(f"column {name!r} has unsupported dtype {array.dtype}")
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, array, allow_pickle=False)
        blobs.append(buffer.getvalue())
        listing.append([name, len(blobs[-1])])
    envelope = json.dumps(
        {"header": header, "columns": listing},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    body = b"".join([_ENVELOPE.pack(len(envelope)), envelope, *blobs])
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"body of {len(body)} bytes exceeds the frame bound")
    return _PREFIX.pack(MAGIC, len(body), hashlib.sha256(body).digest()) + body


def read_prefix(data: bytes) -> Tuple[int, str]:
    """``(body length, hex SHA-256 of the body)`` that the first
    :data:`PREFIX_BYTES` of ``data`` declare; :class:`FrameError` on a
    short prefix, a bad magic or a length over the bound, so a stream
    reader refuses all three before it reads any of the body."""
    if len(data) < _PREFIX.size:
        raise FrameError(f"{len(data)} bytes is shorter than a frame prefix")
    magic, length, digest = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise FrameError("bad magic: not a frame")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"declared body length {length} exceeds the frame bound")
    return length, digest.hex()


def decode_frame(data: bytes) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """``(header, columns)`` of a frame; :class:`FrameError` if ``data``
    is not exactly one well-formed frame."""
    length, digest = read_prefix(data)
    body = memoryview(data)[_PREFIX.size :]
    if length != len(body):
        raise FrameError(f"declared length {length} but {len(body)} bytes follow")
    if hashlib.sha256(body).hexdigest() != digest:
        raise FrameError("checksum mismatch: truncated or corrupted")
    if len(body) < _ENVELOPE.size:
        raise FrameError("body too short for its envelope length")
    (size,) = _ENVELOPE.unpack_from(body)
    offset = _ENVELOPE.size + size
    if offset > len(body):
        raise FrameError(f"envelope length {size} overruns the body")
    try:
        envelope = json.loads(bytes(body[_ENVELOPE.size : offset]))
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"envelope is not JSON ({exc})") from exc
    header = envelope.get("header") if isinstance(envelope, dict) else None
    listing = envelope.get("columns") if isinstance(envelope, dict) else None
    if not isinstance(header, dict) or not isinstance(listing, list):
        raise FrameError("envelope lacks its 'header' object or 'columns' list")
    columns: Dict[str, np.ndarray] = {}
    for entry in listing:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or type(entry[1]) is not int
            or entry[1] < 0
            or entry[0] in columns
        ):
            raise FrameError(f"bad column entry {entry!r}")
        name, nbytes = entry
        if offset + nbytes > len(body):
            raise FrameError(f"column {name!r} overruns the body")
        columns[name] = _read_npy(name, body[offset : offset + nbytes])
        offset += nbytes
    if offset != len(body):
        raise FrameError(f"{len(body) - offset} trailing bytes after the columns")
    return header, columns


def _read_npy(name: str, blob: memoryview) -> np.ndarray:
    """One ``.npy`` payload, its size checked against its header before
    anything is allocated."""
    stream = io.BytesIO(blob)
    try:
        version = np.lib.format.read_magic(stream)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(stream)
        else:
            raise ValueError(f"unsupported .npy version {version}")
    except (ValueError, EOFError, SyntaxError, TypeError) as exc:
        raise FrameError(f"column {name!r} has a bad .npy header ({exc})") from exc
    if dtype.kind not in _KINDS or dtype.hasobject or dtype.fields is not None:
        raise FrameError(f"column {name!r} has refused dtype {dtype}")
    if any(extent < 0 for extent in shape):
        raise FrameError(f"column {name!r} declares negative shape {shape}")
    count = 1
    for extent in shape:
        count *= extent
    start = stream.tell()
    if count * dtype.itemsize != len(blob) - start:
        raise FrameError(
            f"column {name!r} declares {shape} {dtype} but carries "
            f"{len(blob) - start} bytes"
        )
    flat = np.frombuffer(blob, dtype=dtype, count=count, offset=start)
    order = "F" if fortran else "C"
    return flat.reshape(shape, order=order).copy(order=order)
