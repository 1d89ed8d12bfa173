"""The daemon's job table.

One :class:`Job` per submission, living in memory for the daemon's
lifetime and on disk as ``<run_root>/jobs/<job_id>/``.  The directory
is the job's *entire* observable state — ``job.json`` (spec),
``status.json`` + ``events.jsonl`` (written live by the runner
process's monitor/telemetry), ``result.json`` (final QoR) and
``runner.log`` — so every HTTP endpoint is a file read, and a crashed
daemon leaves behind directories a human can still inspect with
``repro top`` / ``repro report``.

All registry methods are thread-safe: HTTP handler threads and flow
worker threads share one registry under a single lock.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.ioutil import atomic_write_bytes
from repro.serve.schemas import (
    JOB_FILENAME,
    JOB_STATES,
    SCHEMA,
    JobSpec,
)

#: Cache/perf counters aggregated across finished jobs into ``/stats``:
#: V-P&R item lookups and flow stage lookups of the shared cache.
AGGREGATED_COUNTERS = (
    "vpr.cache.hit",
    "vpr.cache.miss",
    "vpr.cache.store",
    "vpr.cache.corrupt",
    "vpr.cache.evict",
    "cache.stage.hit",
    "cache.stage.miss",
    "cache.stage.store",
    "cache.stage.corrupt",
)

#: A job's shared-cache hits and misses, stage records and items alike.
HIT_COUNTERS = ("cache.stage.hit", "vpr.cache.hit")
MISS_COUNTERS = ("cache.stage.miss", "vpr.cache.miss")


def cache_traffic(counters: Dict[str, int]) -> Tuple[int, int]:
    """``(hits, misses)`` of one job's shared-cache lookups: a job with
    any hit was served (at least in part) warm."""
    return (
        sum(int(counters.get(k, 0)) for k in HIT_COUNTERS),
        sum(int(counters.get(k, 0)) for k in MISS_COUNTERS),
    )


def _nearest_rank(ordered: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of sorted values (None when empty)."""
    if not ordered:
        return None
    rank = max(1, int(round(q / 100.0 * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class Job:
    """One submitted flow run and its lifecycle bookkeeping."""

    id: str
    spec: JobSpec
    dir: Path
    state: str = "queued"
    created_unix: float = field(default_factory=time.time)
    #: A worker took the job and asked the zygote for a runner.
    started_unix: Optional[float] = None
    #: The zygote reported the forked runner's pid.
    forked_unix: Optional[float] = None
    runner_pid: Optional[int] = None
    finished_unix: Optional[float] = None
    error: Optional[str] = None
    counters: Dict[str, int] = field(default_factory=dict)
    #: ECO jobs only: {"parent": job id, "checkpoint_dir": ...,
    #: "edits": [...]} — the runner compiles this to `repro eco` argv.
    eco: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """The job record served by ``/jobs`` endpoints."""
        out: Dict[str, Any] = {
            "schema": SCHEMA,
            "id": self.id,
            "design": self.spec.design_label(),
            "state": self.state,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "forked_unix": self.forked_unix,
            "finished_unix": self.finished_unix,
            "runner_pid": self.runner_pid,
            "error": self.error,
            "spec": self.spec.to_dict(),
        }
        if self.eco is not None:
            out["eco"] = {
                "parent": self.eco.get("parent"),
                "edits": len(self.eco.get("edits", [])),
            }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.started_unix and self.finished_unix:
            out["wall_s"] = self.finished_unix - self.started_unix
        return out


class JobRegistry:
    """Thread-safe id allocation, lookup and state transitions."""

    def __init__(self, run_root: str) -> None:
        self.run_root = Path(run_root)
        self.jobs_root = self.run_root / "jobs"
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._next_id = 0
        self._totals: Dict[str, int] = {}

    # -- creation ------------------------------------------------------
    def create(
        self,
        spec: JobSpec,
        cache_dir: Optional[str],
        eco: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Allocate an id + directory and persist ``job.json``.

        ``job.json`` carries everything the runner subprocess needs:
        the validated spec, the shared cache directory, and — for ECO
        jobs — the parent checkpoint + inline edit script.
        """
        with self._lock:
            job_id = f"j{self._next_id:05d}"
            self._next_id += 1
            job = Job(
                id=job_id, spec=spec, dir=self.jobs_root / job_id, eco=eco
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
        job.dir.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, Any] = {
            "schema": SCHEMA,
            "id": job.id,
            "spec": spec.to_dict(),
            "cache_dir": cache_dir,
            "created_unix": job.created_unix,
        }
        if eco is not None:
            payload["eco"] = eco
        atomic_write_bytes(
            job.dir / JOB_FILENAME,
            json.dumps(payload, sort_keys=True, indent=2).encode(),
            durable=False,
        )
        return job

    # -- lookup --------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (all states always present)."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] += 1
        return out

    def totals(self) -> Dict[str, int]:
        """Aggregated counters folded in from finished jobs."""
        with self._lock:
            return dict(self._totals)

    def latency(self) -> Dict[str, Any]:
        """Where a job's time goes, server-side: p50 / p95 seconds of
        ``queue_wait_s`` (created -> started), ``start_s`` (runner
        requested -> pid reported) and ``run_s`` (started -> finished)
        over the finished jobs that reached a runner."""
        with self._lock:
            ran = [
                job
                for job in self._jobs.values()
                if job.forked_unix is not None
                and job.finished_unix is not None
            ]
            spans = {
                "queue_wait_s": [j.started_unix - j.created_unix for j in ran],
                "start_s": [j.forked_unix - j.started_unix for j in ran],
                "run_s": [j.finished_unix - j.started_unix for j in ran],
            }
        out: Dict[str, Any] = {"jobs": len(ran)}
        for name, values in spans.items():
            values.sort()
            out[name] = {
                "p50": _nearest_rank(values, 50),
                "p95": _nearest_rank(values, 95),
            }
        return out

    # -- transitions (worker threads) ----------------------------------
    def mark_running(self, job: Job) -> None:
        with self._lock:
            job.state = "running"
            job.started_unix = time.time()

    def mark_forked(self, job: Job, pid: int) -> None:
        with self._lock:
            job.forked_unix = time.time()
            job.runner_pid = pid

    def mark_done(self, job: Job, counters: Dict[str, int]) -> None:
        with self._lock:
            job.state = "done"
            job.finished_unix = time.time()
            job.counters = dict(counters)
            for key in AGGREGATED_COUNTERS:
                if counters.get(key):
                    self._totals[key] = (
                        self._totals.get(key, 0) + int(counters[key])
                    )
            hits, misses = cache_traffic(counters)
            for key, counts in (("jobs.cached", hits or misses), ("jobs.warm", hits)):
                if counts:
                    self._totals[key] = self._totals.get(key, 0) + 1

    def mark_failed(self, job: Job, error: str) -> None:
        with self._lock:
            job.state = "failed"
            job.finished_unix = job.finished_unix or time.time()
            if job.started_unix is None:
                job.started_unix = job.finished_unix
            job.error = error
