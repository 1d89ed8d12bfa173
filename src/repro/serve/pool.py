"""Bounded flow-worker pool: the execution half of the job server.

Each worker thread pops one job at a time off the shared queue and
supervises one **runner process** for it.  The runners are forked by a
single **zygote** child of the daemon
(``python -m repro.serve.runner --zygote``), started on the first job,
which has already imported everything a flow or ECO job needs — so a
job pays neither interpreter start nor numpy / scipy / flow imports.
Only the zygote forks; the daemon, which runs HTTP threads, never does.

One process per job is still the containment boundary:

* a flow that raises, aborts, is OOM-killed or injected with
  ``REPRO_FAULTS`` takes down only its own process — the daemon marks
  the job ``failed`` and serves the next one;
* the process-global perf/telemetry/monitor registries stay
  single-run (the zygote never runs a flow, so every runner starts
  from the state a fresh import leaves), so each job's
  ``status.json`` / ``events.jsonl`` / ``run.json`` are exactly what
  the one-shot CLI would have written into the same directory (the
  byte-identity guarantee rides on this);
* N workers bound the machine to N concurrent flows no matter how
  deep the queue grows.

All jobs share one content-addressed :class:`EvaluationCache`
directory; keys are digests of (sub-netlist, shape, config), so
concurrent writers are naturally safe and repeat traffic on popular
designs is served warm.  Because the per-writer opportunistic GC
trigger fires every ``GC_WRITE_INTERVAL`` puts *of one short-lived
writer* — which a job rarely reaches — the pool runs its own janitor
sweep after every finished job.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cache import EvaluationCache
from repro.serve.registry import Job, JobRegistry
from repro.serve.schemas import ERROR_FILENAME, RUNNER_LOG_FILENAME

_STOP = object()


def _daemon_env() -> Dict[str, str]:
    """The daemon's environment with the repro package importable (the
    daemon may run from a source tree without an installed package)."""
    env = dict(os.environ)
    import repro

    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    existing = env.get("PYTHONPATH")
    if package_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
    return env


def _runner_env(job: Job) -> Dict[str, str]:
    """The runner environment: the daemon's, plus the spec's
    allow-listed overrides (fault injection)."""
    env = _daemon_env()
    env.update(job.spec.env)
    return env


def _runner_error(job: Job, returncode: int) -> str:
    """Best diagnosis of a failed runner, most specific source first."""
    try:
        payload = json.loads((job.dir / ERROR_FILENAME).read_text())
        if payload.get("error"):
            return str(payload["error"])
    except (OSError, ValueError):
        pass
    from repro.monitor import load_status

    status = load_status(str(job.dir))
    if status and status.get("error"):
        return str(status["error"])
    return f"runner exited with code {returncode}"


def _exit_text(code: int) -> str:
    if code < 0:
        try:
            return f"killed by {signal.Signals(-code).name}"
        except ValueError:
            return f"killed by signal {-code}"
    return f"exit code {code}"


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _finished_counters(job: Job) -> Dict[str, int]:
    """Perf counters from the job's run.json (empty when unreadable)."""
    try:
        run = json.loads((job.dir / "run.json").read_text())
        counters = run.get("perf", {}).get("counters", {})
        return {
            k: int(v)
            for k, v in counters.items()
            if isinstance(v, (int, float))
        }
    except (OSError, ValueError):
        return {}


class _ZygoteProcess:
    """One zygote process and the jobs it has been asked to run."""

    def __init__(self, process: subprocess.Popen) -> None:
        self.process = process
        #: job id -> the reply queue of the worker waiting on that job.
        self.waiting: Dict[str, "queue.Queue"] = {}
        #: job id -> runner pid, for runners not yet reported finished.
        self.pids: Dict[str, int] = {}


class Zygote:
    """The daemon's end of ``python -m repro.serve.runner --zygote``.

    Started on the first :meth:`launch` (never at daemon start) with
    the daemon's own environment; one reader thread per zygote process
    routes each reply line to the worker waiting on that job.  If the
    zygote dies, its in-flight runners are killed, their jobs get a
    diagnosed error, and the next launch starts a new zygote.
    """

    def __init__(self, cwd: Path) -> None:
        self._cwd = cwd
        self._lock = threading.Lock()
        self._current: Optional[_ZygoteProcess] = None
        self._closed = False

    @property
    def pid(self) -> Optional[int]:
        with self._lock:
            return self._current.process.pid if self._current else None

    def launch(self, job: Job) -> "queue.Queue":
        """Ask for a runner for ``job``.  The returned queue yields
        ``{pid}`` (or ``{error}``), then ``{exit}`` (or ``{error}``)."""
        replies: "queue.Queue" = queue.Queue()
        line = json.dumps(
            {
                "job": job.id,
                "dir": str(job.dir),
                "env": _runner_env(job),
                "log": str(job.dir / RUNNER_LOG_FILENAME),
            }
        ).encode() + b"\n"
        with self._lock:
            if self._closed:
                raise RuntimeError("cancelled: server shutting down")
            zygote = self._current
            if zygote is None or zygote.process.poll() is not None:
                zygote = self._current = self._start()
            zygote.waiting[job.id] = replies
            try:
                zygote.process.stdin.write(line)
                zygote.process.stdin.flush()
            except OSError:
                pass  # it died; its reader thread fails the job
        return replies

    def close(self, timeout: Optional[float] = None) -> None:
        """Close the zygote's stdin and wait for it: it exits once it
        has reaped every runner, which lands their resource usage in
        this process's ``RUSAGE_CHILDREN``."""
        with self._lock:
            self._closed = True
            zygote = self._current
            if zygote is None:
                return
            try:
                zygote.process.stdin.close()
            except OSError:
                pass
        try:
            zygote.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass

    def _start(self) -> _ZygoteProcess:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.runner", "--zygote"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_daemon_env(),
            cwd=str(self._cwd),
        )
        zygote = _ZygoteProcess(process)
        threading.Thread(
            target=self._read,
            args=(zygote,),
            name=f"zygote-{process.pid}",
            daemon=True,
        ).start()
        return zygote

    def _read(self, zygote: _ZygoteProcess) -> None:
        # Each line is one os.write() of under PIPE_BUF bytes: whole.
        for raw in zygote.process.stdout:
            reply: Dict[str, Any] = json.loads(raw)
            job_id = reply["job"]
            with self._lock:
                replies = zygote.waiting.get(job_id)
                if "pid" in reply:
                    zygote.pids[job_id] = reply["pid"]
                else:
                    zygote.waiting.pop(job_id, None)
                    zygote.pids.pop(job_id, None)
            if replies is not None:
                replies.put(reply)
        code = zygote.process.wait()
        with self._lock:
            if self._current is zygote:
                self._current = None
            orphans, zygote.waiting = zygote.waiting, {}
            pids, zygote.pids = list(zygote.pids.values()), {}
        # Its runners were reparented away from this daemon: stop them
        # writing into jobs that are about to read failed.
        for pid in pids:
            _kill(pid)
        error = f"runner zygote died ({_exit_text(code)}) while the job ran"
        for replies in orphans.values():
            replies.put({"error": error})


class FlowWorkerPool:
    """N worker threads supervising one runner process each."""

    def __init__(
        self,
        registry: JobRegistry,
        cache: Optional[EvaluationCache],
        workers: int = 2,
        job_timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.registry = registry
        self.cache = cache
        self.job_timeout = job_timeout
        self.zygote = Zygote(registry.run_root)
        self._queue: "queue.Queue" = queue.Queue()
        self._busy = 0
        self._busy_lock = threading.Lock()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"flow-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- introspection (the /stats endpoint) ---------------------------
    @property
    def workers(self) -> int:
        return len(self._threads)

    @property
    def busy(self) -> int:
        with self._busy_lock:
            return self._busy

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # -- submission ----------------------------------------------------
    def submit(self, job: Job) -> None:
        if self._closed:
            raise RuntimeError("pool is shut down")
        self._queue.put(job)

    # -- shutdown ------------------------------------------------------
    def shutdown(self, timeout: Optional[float] = None) -> List[Job]:
        """Stop accepting work and drain: running jobs finish, jobs
        still queued are failed as cancelled, then the zygote is
        closed and waited for.  Returns the cancelled jobs."""
        self._closed = True
        cancelled: List[Job] = []
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            self.registry.mark_failed(job, "cancelled: server shutting down")
            cancelled.append(job)
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self.zygote.close(timeout=timeout)
        return cancelled

    # -- the worker loop -----------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            with self._busy_lock:
                self._busy += 1
            try:
                self._run_job(job)
            except Exception as exc:  # never kill the worker thread
                self.registry.mark_failed(job, f"worker error: {exc!r}")
            finally:
                with self._busy_lock:
                    self._busy -= 1
                self._janitor_gc()

    def _run_job(self, job: Job) -> None:
        self.registry.mark_running(job)
        replies = self.zygote.launch(job)
        reply = replies.get()
        if "pid" not in reply:
            self.registry.mark_failed(job, reply["error"])
            return
        self.registry.mark_forked(job, reply["pid"])
        try:
            reply = replies.get(timeout=self.job_timeout)
        except queue.Empty:
            _kill(job.runner_pid)
            replies.get()
            self.registry.mark_failed(
                job, f"job exceeded timeout of {self.job_timeout:g}s"
            )
            return
        if "exit" not in reply:
            self.registry.mark_failed(job, reply["error"])
        elif reply["exit"] == 0 and (job.dir / "result.json").is_file():
            self.registry.mark_done(job, _finished_counters(job))
        else:
            self.registry.mark_failed(job, _runner_error(job, reply["exit"]))

    def _janitor_gc(self) -> None:
        """Daemon-side LRU sweep of the shared cache.

        Individual jobs are short-lived writers that rarely reach the
        per-instance opportunistic GC trigger, so the long-lived pool
        owns keeping the shared store within bounds.
        """
        if self.cache is None:
            return
        try:
            self.cache.gc()
        except Exception:  # pragma: no cover - GC is best-effort
            pass
