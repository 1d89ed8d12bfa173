"""Request bodies are bounded before they are read, over a real socket:
a malformed or negative ``Content-Length`` is a ``400`` and an oversized
one a ``413``, each answered without reading a body and followed by the
server closing the connection."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.serve import ServeApp, ServeServer
from repro.serve.server import MAX_BODY_BYTES


@pytest.fixture
def address(tmp_path):
    app = ServeApp(str(tmp_path / "run"), workers=1)
    server = ServeServer(("127.0.0.1", 0), app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    app.close(timeout=30.0)


def _exchange(address, headers: str):
    """Send a request head (no body); read until the server closes."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(
            f"POST /jobs HTTP/1.1\r\nHost: test\r\n{headers}\r\n".encode()
        )
        data = b""
        # A server still waiting for a body times this recv out.
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.mark.parametrize("length", ["abc", "-1", "+5", "1e3"])
def test_bad_content_length_is_400(address, length):
    status, body = _exchange(address, f"Content-Length: {length}\r\n")
    assert status == 400
    assert "Content-Length" in body["error"]


def test_oversized_body_is_413_without_reading_it(address):
    status, body = _exchange(
        address, f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
    )
    assert status == 413
    assert "error" in body


def test_bounded_body_is_served(address):
    status, body = _exchange(
        address, "Content-Length: 0\r\nConnection: close\r\n"
    )
    assert status == 400  # an empty spec, judged by the app
    assert body["error"] == "job spec must be a JSON object"
