"""Flow-as-a-service: the ``repro serve`` HTTP surface.

The daemon is three long-lived pieces wired together:

* a :class:`~repro.serve.registry.JobRegistry` (job table + job dirs
  under the run root),
* a :class:`~repro.serve.pool.FlowWorkerPool` (bounded concurrency,
  one runner process per job, forked by a preloaded zygote),
* one shared :class:`~repro.cache.EvaluationCache` every job reads
  and writes, so repeat traffic on popular designs is served warm.

Request handling follows the ``{statusCode, body}`` framing of
``Kuree/cgra_pnr``'s serverless placement handler: every route is a
pure function from ``(method, path, body)`` to a status code plus a
JSON-serialisable body (:meth:`ServeApp.handle_request`), and the
stdlib HTTP layer is a thin adapter around it — which also makes the
whole API unit-testable without sockets.

API (all JSON; see ``docs/serving.md``):

========  ======================  =======================================
method    path                    meaning
========  ======================  =======================================
GET       /                       service description + endpoint list
POST      /jobs                   submit a job spec -> ``202 {job_id}``
GET       /jobs                   all job records (newest last)
GET       /jobs/<id>              one record + live ``status.json``
GET       /jobs/<id>/events       events.jsonl tail (``offset``/``limit``)
GET       /jobs/<id>/result       final QoR report (409 until ``done``)
GET       /stats                  queue/worker/cache/counter snapshot
POST      /shutdown               drain running jobs and exit
========  ======================  =======================================
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.cache import EvaluationCache, derive_cache_summary
from repro.ioutil import atomic_write_bytes
from repro.serve.pool import FlowWorkerPool
from repro.serve.registry import Job, JobRegistry
from repro.serve.schemas import (
    RESULT_FILENAME,
    SCHEMA,
    SpecError,
    parse_job_spec,
)

#: File the daemon writes into its run root once the socket is bound,
#: so clients (and the load bench) can discover the ephemeral port.
SERVER_FILENAME = "server.json"

#: Largest request body the daemon reads (a job spec or an edit script
#: is a few KiB); a larger declared ``Content-Length`` is a ``413``.
MAX_BODY_BYTES = 1 << 20


def _response(status: int, body: Dict[str, Any]) -> Dict[str, Any]:
    """The Kuree-style handler framing: one dict per response."""
    return {"statusCode": status, "body": body}


class ServeApp:
    """Daemon state + the pure request handler."""

    def __init__(
        self,
        run_root: str,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        job_timeout: Optional[float] = None,
    ) -> None:
        # Absolute: every runner works inside its own job directory.
        self.run_root = Path(run_root).resolve()
        self.run_root.mkdir(parents=True, exist_ok=True)
        self.cache_dir = str(
            Path(cache_dir).resolve() if cache_dir else self.run_root / "cache"
        )
        self.cache = EvaluationCache(self.cache_dir)
        self.registry = JobRegistry(str(self.run_root))
        self.pool = FlowWorkerPool(
            self.registry,
            cache=self.cache,
            workers=workers,
            job_timeout=job_timeout,
        )
        self.started_unix = time.time()
        #: Draining: new submissions are refused from here on.
        self.shutdown_event = threading.Event()
        #: The daemon may exit.  Trails ``shutdown_event`` on
        #: ``POST /shutdown``: handler threads are daemons, so leaving
        #: before the acknowledgement is on the wire would truncate it.
        self.exit_event = threading.Event()

    # -- routes --------------------------------------------------------
    def handle_request(
        self, method: str, path: str, body: Any = None
    ) -> Dict[str, Any]:
        """Dispatch one request; always returns ``{statusCode, body}``."""
        parts = urlsplit(path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parts.query).items()
        }
        segments = [s for s in parts.path.split("/") if s]
        try:
            if method == "GET" and not segments:
                return self._describe()
            if segments == ["jobs"]:
                if method == "POST":
                    return self._submit(body)
                if method == "GET":
                    return self._list_jobs()
            if segments == ["stats"] and method == "GET":
                return self._stats()
            if segments == ["shutdown"] and method == "POST":
                return self._shutdown()
            if len(segments) >= 2 and segments[0] == "jobs":
                job = self.registry.get(segments[1])
                if job is None:
                    return _response(
                        404, {"error": f"unknown job {segments[1]!r}"}
                    )
                if len(segments) == 2 and method == "GET":
                    return self._job_detail(job)
                if segments[2:] == ["events"] and method == "GET":
                    return self._job_events(job, query)
                if segments[2:] == ["result"] and method == "GET":
                    return self._job_result(job)
                if segments[2:] == ["eco"] and method == "POST":
                    return self._submit_eco(job, body)
        except SpecError as exc:
            return _response(400, {"error": str(exc)})
        return _response(
            404, {"error": f"no route for {method} {parts.path}"}
        )

    def _describe(self) -> Dict[str, Any]:
        return _response(
            200,
            {
                "schema": SCHEMA,
                "service": "repro serve",
                "version": __version__,
                "endpoints": [
                    "POST /jobs",
                    "GET /jobs",
                    "GET /jobs/<id>",
                    "GET /jobs/<id>/events",
                    "GET /jobs/<id>/result",
                    "POST /jobs/<id>/eco",
                    "GET /stats",
                    "POST /shutdown",
                ],
            },
        )

    def _submit(self, body: Any) -> Dict[str, Any]:
        if self.shutdown_event.is_set():
            return _response(503, {"error": "server is shutting down"})
        spec = parse_job_spec(body)
        job = self.registry.create(spec, self.cache_dir)
        self.pool.submit(job)
        return _response(
            202,
            {
                "schema": SCHEMA,
                "job_id": job.id,
                "state": job.state,
                "links": {
                    "status": f"/jobs/{job.id}",
                    "events": f"/jobs/{job.id}/events",
                    "result": f"/jobs/{job.id}/result",
                },
            },
        )

    def _submit_eco(self, parent: Job, body: Any) -> Dict[str, Any]:
        """Queue an incremental ECO against a finished flow job.

        The child job re-opens the parent's stage checkpoint and
        recomputes QoR for the edit delta only (docs/performance.md,
        "Incremental ECO"); it is a first-class job — same lifecycle,
        status/events/result endpoints, worker pool and shared cache.
        """
        from repro.eco import EcoError, parse_edits
        from repro.serve.schemas import CHECKPOINT_DIRNAME

        if self.shutdown_event.is_set():
            return _response(503, {"error": "server is shutting down"})
        if parent.spec.flow != "ours":
            return _response(
                400,
                {
                    "error": f"job {parent.id} ran flow "
                    f"{parent.spec.flow!r}; only 'ours' jobs leave an "
                    "ECO-able checkpoint"
                },
            )
        if parent.state != "done":
            return _response(
                409,
                {
                    "error": f"job {parent.id} is {parent.state}; ECO "
                    "needs a finished base run",
                    "state": parent.state,
                },
            )
        try:
            edits = parse_edits(body)
        except EcoError as exc:
            return _response(400, {"error": str(exc)})
        job = self.registry.create(
            parent.spec,
            self.cache_dir,
            eco={
                "parent": parent.id,
                "checkpoint_dir": str(parent.dir / CHECKPOINT_DIRNAME),
                "edits": [edit.to_payload() for edit in edits],
            },
        )
        self.pool.submit(job)
        return _response(
            202,
            {
                "schema": SCHEMA,
                "job_id": job.id,
                "parent": parent.id,
                "state": job.state,
                "edits": len(edits),
                "links": {
                    "status": f"/jobs/{job.id}",
                    "events": f"/jobs/{job.id}/events",
                    "result": f"/jobs/{job.id}/result",
                },
            },
        )

    def _list_jobs(self) -> Dict[str, Any]:
        return _response(
            200,
            {
                "schema": SCHEMA,
                "jobs": [job.to_dict() for job in self.registry.list()],
            },
        )

    def _job_detail(self, job: Job) -> Dict[str, Any]:
        from repro.monitor import load_status

        record = job.to_dict()
        # The live view, straight from the runner's atomically-replaced
        # status.json (schema repro.monitor/1) — progress bars, stage
        # stack, worker heartbeats, RSS — with zero daemon-side state.
        record["status"] = load_status(str(job.dir))
        return _response(200, record)

    def _job_events(
        self, job: Job, query: Dict[str, str]
    ) -> Dict[str, Any]:
        from repro.telemetry.events import iter_events

        try:
            offset = max(0, int(query.get("offset", 0)))
            limit = max(1, min(int(query.get("limit", 100)), 1000))
        except ValueError:
            return _response(
                400, {"error": "offset/limit must be integers"}
            )
        events = []
        index = 0
        for event in iter_events(str(job.dir / "events.jsonl")):
            if index >= offset:
                events.append(event)
                if len(events) > limit:
                    events.pop(0)
                    offset = index - limit + 1
            index += 1
        return _response(
            200,
            {
                "schema": SCHEMA,
                "job_id": job.id,
                "state": job.state,
                "offset": offset,
                "next_offset": index,
                "events": events,
            },
        )

    def _job_result(self, job: Job) -> Dict[str, Any]:
        if job.state == "failed":
            return _response(
                410, {"error": job.error or "job failed", "state": "failed"}
            )
        if job.state != "done":
            return _response(
                409,
                {
                    "error": f"job is {job.state}; poll /jobs/{job.id}",
                    "state": job.state,
                },
            )
        try:
            report = json.loads((job.dir / RESULT_FILENAME).read_text())
        except (OSError, ValueError):
            return _response(
                500, {"error": "result.json unreadable", "state": job.state}
            )
        return _response(
            200,
            {
                "schema": SCHEMA,
                "job_id": job.id,
                "state": job.state,
                "qor": report,
                "counters": dict(job.counters),
                "wall_s": (job.finished_unix or 0)
                - (job.started_unix or 0),
            },
        )

    def _stats(self) -> Dict[str, Any]:
        cache_stats = self.cache.stats()
        totals = self.registry.totals()
        hits = totals.get("vpr.cache.hit", 0)
        misses = totals.get("vpr.cache.miss", 0)
        # One summary derivation shared with ``repro cache stats`` and
        # the sweep parent's end-of-sweep event, so hit_ratio /
        # bytes_on_disk mean the same thing everywhere.  The historical
        # warm_hit_ratio key stays (same value) for existing clients.
        summary = derive_cache_summary(
            hits,
            misses,
            totals.get("vpr.cache.store", 0),
            cache_stats,
        )
        cache_block = {
            "directory": self.cache_dir,
            "total_bytes": cache_stats.total_bytes,
            "warm_hit_ratio": summary["hit_ratio"],
        }
        cache_block.update(summary)
        return _response(
            200,
            {
                "schema": SCHEMA,
                "uptime_s": time.time() - self.started_unix,
                "queue_depth": self.pool.queue_depth,
                "workers": self.pool.workers,
                "busy_workers": self.pool.busy,
                "jobs": self.registry.counts(),
                "latency": self.registry.latency(),
                "cache": cache_block,
            },
        )

    def _shutdown(self) -> Dict[str, Any]:
        self.shutdown_event.set()
        response = _response(202, {"schema": SCHEMA, "state": "stopping"})
        # Whoever delivers this reply calls request_exit() afterwards.
        response["final"] = True
        return response

    # -- lifecycle -----------------------------------------------------
    def request_exit(self) -> None:
        """Stop accepting work and release :func:`run_serve`."""
        self.shutdown_event.set()
        self.exit_event.set()

    def close(self, timeout: Optional[float] = None) -> None:
        self.request_exit()
        self.pool.shutdown(timeout=timeout)


# ----------------------------------------------------------------------
# stdlib HTTP adapter
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Thin adapter from HTTP to :meth:`ServeApp.handle_request`."""

    server_version = "repro-serve/" + __version__
    protocol_version = "HTTP/1.1"

    def _dispatch(self) -> None:
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        body = None
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # The body's end is unknown: reply and drop the connection.
            self._reply(
                400,
                {"error": "Content-Length must be a non-negative integer"},
                close=True,
            )
            return
        length = int(header)
        if length > MAX_BODY_BYTES:
            self._reply(
                413,
                {"error": f"request body over {MAX_BODY_BYTES} bytes"},
                close=True,
            )
            return
        if length:
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw)
            except ValueError:
                self._reply(400, {"error": "request body is not JSON"})
                return
        response = app.handle_request(self.command, self.path, body)
        self._reply(response["statusCode"], response["body"])
        if response.get("final"):
            app.request_exit()

    def _reply(
        self, status: int, body: Dict[str, Any], close: bool = False
    ) -> None:
        data = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        try:
            self.wfile.write(data)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    do_GET = _dispatch
    do_POST = _dispatch

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # requests are visible via the registry, not stderr noise


class ServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the app reference."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ServeApp) -> None:
        super().__init__(address, _Handler)
        self.app = app


def write_server_file(app: ServeApp, host: str, port: int) -> Path:
    """Publish the bound address for clients (ephemeral-port friendly)."""
    import os

    path = app.run_root / SERVER_FILENAME
    atomic_write_bytes(
        path,
        json.dumps(
            {
                "schema": SCHEMA,
                "url": f"http://{host}:{port}",
                "host": host,
                "port": port,
                "pid": os.getpid(),
                "workers": app.pool.workers,
                "cache_dir": app.cache_dir,
                "started_unix": app.started_unix,
            },
            sort_keys=True,
            indent=2,
        ).encode(),
        durable=False,
    )
    return path


def run_serve(
    run_root: str,
    cache_dir: Optional[str] = None,
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 8181,
    job_timeout: Optional[float] = None,
) -> int:
    """Run the daemon until ``POST /shutdown`` or SIGTERM/SIGINT.

    Binds first (``port=0`` picks an ephemeral port), then publishes
    ``<run_root>/server.json`` with the resolved address.  Shutdown is
    clean: in-flight jobs finish, queued jobs are failed as cancelled,
    worker threads are joined.
    """
    app = ServeApp(
        run_root,
        cache_dir=cache_dir,
        workers=workers,
        job_timeout=job_timeout,
    )
    try:
        server = ServeServer((host, port), app)
    except socket.error as exc:
        print(f"repro serve: cannot bind {host}:{port}: {exc}")
        app.close(timeout=5.0)
        return 1
    bound_port = server.server_address[1]
    write_server_file(app, host, bound_port)
    print(
        f"repro serve: listening on http://{host}:{bound_port} "
        f"(workers={app.pool.workers}, cache={app.cache_dir}, "
        f"run-root={app.run_root})",
        flush=True,
    )

    previous_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(
                signum, lambda *_: app.request_exit()
            )
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass

    server_thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    server_thread.start()
    try:
        app.exit_event.wait()
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10.0)
        cancelled = app.pool.shutdown(timeout=None)
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    counts = app.registry.counts()
    print(
        f"repro serve: stopped ({counts['done']} done, "
        f"{counts['failed']} failed, {len(cancelled)} cancelled)",
        flush=True,
    )
    return 0
