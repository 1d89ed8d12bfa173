"""``POST /shutdown`` must deliver its whole reply before the daemon
exits (handler threads are daemons: releasing the main thread before
the acknowledgement is written used to truncate it now and then)."""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")
DAEMONS = 20


def _wait_for(path: Path, process: subprocess.Popen, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            return json.loads(path.read_text())
        assert process.poll() is None, "daemon exited before publishing its address"
        time.sleep(0.02)
    raise AssertionError(f"{path} never appeared")


def test_every_shutdown_reply_is_whole(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    daemons = []
    try:
        for index in range(DAEMONS):
            root = tmp_path / f"d{index}"
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--run-root", str(root), "--port", "0", "--workers", "1",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            daemons.append((root, process))
        for root, process in daemons:
            address = _wait_for(root / "server.json", process)
            connection = http.client.HTTPConnection(
                address["host"], address["port"], timeout=30
            )
            try:
                connection.request(
                    "POST", "/shutdown", body=b"{}",
                    headers={"Content-Type": "application/json"},
                )
                reply = connection.getresponse()
                # read() raises IncompleteRead on a truncated body.
                body = json.loads(reply.read())
            finally:
                connection.close()
            assert reply.status == 202
            assert body["state"] == "stopping"
            assert process.wait(timeout=60) == 0
    finally:
        for _root, process in daemons:
            if process.poll() is None:
                process.kill()
                process.wait()
