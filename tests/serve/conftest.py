"""Shared serve-test plumbing: an in-process app factory and pollers.

``ServeApp.handle_request`` is a pure function from ``(method, path,
body)`` to ``{statusCode, body}``, so most tests drive the daemon
without sockets; the runner subprocesses underneath are real, which is
the point — every job exercises the full flow + telemetry stack.
"""

from __future__ import annotations

import time

import pytest

from repro.serve.server import ServeApp

#: A generated design small enough that a full no-routing flow run
#: finishes in about a second, yet large enough that shape selection
#: goes through the evaluation cache (below ~600 instances the design
#: collapses to too few clusters to exercise it).
TINY_DESIGN = {"name": "tiny", "num_instances": 600, "seed": 3}
TINY_SPEC = {"design": TINY_DESIGN, "routing": False}


@pytest.fixture
def make_app(tmp_path):
    """Factory for ServeApps rooted under tmp_path; closed on teardown."""
    apps = []

    def _make(workers: int = 2, **kwargs) -> ServeApp:
        app = ServeApp(
            str(tmp_path / f"run{len(apps)}"), workers=workers, **kwargs
        )
        apps.append(app)
        return app

    yield _make
    for app in apps:
        app.close(timeout=60.0)


def request(app: ServeApp, method: str, path: str, body=None):
    """One request; returns (status, body)."""
    response = app.handle_request(method, path, body)
    return response["statusCode"], response["body"]


def submit(app: ServeApp, spec) -> str:
    status, body = request(app, "POST", "/jobs", spec)
    assert status == 202, body
    return body["job_id"]


def wait_job(app: ServeApp, job_id: str, timeout: float = 120.0):
    """Poll one job until done/failed; returns its final record."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, record = request(app, "GET", f"/jobs/{job_id}")
        assert status == 200, record
        if record["state"] in ("done", "failed"):
            return record
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} not terminal after {timeout}s")
