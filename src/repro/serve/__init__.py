"""Flow-as-a-service: a long-lived job server over the placement flow.

``repro serve`` wraps :class:`~repro.core.flow.ClusteredPlacementFlow`
in a daemon with an async job queue: clients ``POST /jobs`` a design
spec plus flow-config overrides and get a job id back; live status
streams straight from each job's ``status.json`` (schema
``repro.monitor/1``) and ``events.jsonl``; all jobs share one
content-addressed :class:`~repro.cache.EvaluationCache`, so repeat
traffic on popular designs is served at cache speed.  Each job runs
in its own runner process (forked by a zygote that has already
imported the flow) and telemetry out-dir — crash containment per job,
byte-identical QoR to the one-shot CLI.

See ``docs/serving.md`` for the API and operational semantics, and
``benchmarks/bench_serve_load.py`` for the throughput/latency gate.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.pool import FlowWorkerPool
from repro.serve.registry import Job, JobRegistry
from repro.serve.schemas import (
    JOB_STATES,
    SCHEMA,
    JobSpec,
    SpecError,
    deterministic_qor,
    parse_job_spec,
    spec_to_argv,
)
from repro.serve.server import (
    SERVER_FILENAME,
    ServeApp,
    ServeServer,
    run_serve,
)

__all__ = [
    "FlowWorkerPool",
    "JOB_STATES",
    "Job",
    "JobRegistry",
    "JobSpec",
    "SCHEMA",
    "SERVER_FILENAME",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "SpecError",
    "deterministic_qor",
    "parse_job_spec",
    "run_serve",
    "spec_to_argv",
]
