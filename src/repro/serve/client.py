"""Tiny stdlib client for the job server.

Used by the load benchmark, the serve smoke test and the test-suite;
also a copy-paste reference for anyone driving the API from scripts.
Every method maps 1:1 to an endpoint and returns the decoded JSON
body; non-2xx responses raise :class:`ServeError` carrying the status
code and the server's error message.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve.schemas import SCHEMA  # noqa: F401 - re-exported

#: Terminal job states (polling stops on these).
TERMINAL_STATES = ("done", "failed")


class ServeError(RuntimeError):
    """A non-2xx response from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """One server's base URL plus request plumbing."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    @classmethod
    def discover(
        cls, run_root: str, timeout: float = 30.0
    ) -> "ServeClient":
        """Wait for ``<run_root>/server.json`` and connect to it.

        The daemon writes the file only after its socket is bound, so
        this doubles as the "server is up" barrier for subprocesses.
        """
        path = Path(run_root) / "server.json"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                info = json.loads(path.read_text())
                return cls(info["url"])
            except (OSError, ValueError, KeyError):
                time.sleep(0.05)
        raise TimeoutError(f"no server.json in {run_root} after {timeout}s")

    # -- plumbing ------------------------------------------------------
    def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except ValueError:
                message = str(exc)
            raise ServeError(exc.code, message) from None

    # -- endpoints -----------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        return self.request("GET", "/")

    def submit(self, spec: Dict[str, Any]) -> str:
        """POST a job spec; returns the allocated job id."""
        return self.request("POST", "/jobs", spec)["job_id"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self.request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}")

    def events(
        self, job_id: str, offset: int = 0, limit: int = 100
    ) -> Dict[str, Any]:
        return self.request(
            "GET", f"/jobs/{job_id}/events?offset={offset}&limit={limit}"
        )

    def result(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}/result")

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/stats")

    def shutdown(self) -> Dict[str, Any]:
        return self.request("POST", "/shutdown", {})

    # -- polling helpers -----------------------------------------------
    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.1
    ) -> Dict[str, Any]:
        """Poll one job until it reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            time.sleep(poll)
