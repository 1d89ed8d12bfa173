"""Wire schemas of the job server.

One schema tag (``repro.serve/1``) covers the three JSON documents the
server exchanges with clients and persists per job:

* the **job spec** a client POSTs to ``/jobs`` — a design (named
  benchmark or generator parameters) plus flow-config overrides;
* the **job record** every ``/jobs*`` endpoint returns — id, state,
  timestamps, aggregated cache counters;
* the on-disk ``job.json`` tying the two together inside a job's
  directory, which is all :mod:`repro.serve.runner` needs to run the
  flow in its own process.

A spec deliberately re-uses the CLI ``flow`` vocabulary (``flow``,
``tool``, ``clustering``, ``shapes``, ``routing``, ``jobs``, ``seed``)
and is compiled to CLI argv by :func:`spec_to_argv`, so a served job
runs the *exact* code path of ``python -m repro flow`` and its QoR is
byte-identical to a CLI run of the same spec (asserted in
``tests/serve/test_qor_identity.py``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.cli import CLUSTERING_CHOICES, FLOW_CHOICES, SHAPES_CHOICES, TOOL_CHOICES

#: Schema tag stamped on every serve document.
SCHEMA = "repro.serve/1"

#: The job lifecycle.  ``queued`` -> ``running`` -> ``done`` |
#: ``failed``; there are no other transitions.
JOB_STATES = ("queued", "running", "done", "failed")

#: File names inside a job directory.
JOB_FILENAME = "job.json"
RESULT_FILENAME = "result.json"
ERROR_FILENAME = "job_error.json"
RUNNER_LOG_FILENAME = "runner.log"
ECO_EDITS_FILENAME = "edits.json"
#: Subdirectory of a flow job holding its stage checkpoint — what an
#: ECO job re-opens (see docs/performance.md, "Incremental ECO").
CHECKPOINT_DIRNAME = "ckpt"

#: Environment variables a spec may inject into its runner process —
#: deliberately only the deterministic fault-injection hook, so a
#: client can exercise crash containment but not mutate the daemon's
#: environment at large.
_ALLOWED_ENV = ("REPRO_FAULTS",)


class SpecError(ValueError):
    """A job spec failed validation (maps to HTTP 400)."""


@dataclass
class JobSpec:
    """A validated design + flow-config override bundle.

    ``design`` is either a benchmark name from Table 1 (``"aes"``) or
    a dict of :class:`repro.designs.generator.DesignSpec` fields for a
    synthetic design generated server-side.
    """

    design: Union[str, Dict[str, Any]]
    flow: str = "ours"
    tool: str = "openroad"
    clustering: str = "ppa"
    shapes: str = "vpr"
    routing: bool = True
    jobs: int = 1
    seed: int = 0
    env: Dict[str, str] = field(default_factory=dict)

    def design_label(self) -> str:
        """Short human label for listings (`aes`, `gen:tiny`, ...)."""
        if isinstance(self.design, str):
            return self.design
        return f"gen:{self.design.get('name', '?')}"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def parse_job_spec(payload: Any) -> JobSpec:
    """Validate a ``POST /jobs`` body into a :class:`JobSpec`.

    Raises :class:`SpecError` with a client-actionable message on any
    unknown key, wrong type, or out-of-vocabulary choice.
    """
    if not isinstance(payload, dict):
        raise SpecError("job spec must be a JSON object")
    known = {f.name for f in dataclasses.fields(JobSpec)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SpecError(
            f"unknown spec field(s) {unknown}; accepted: {sorted(known)}"
        )
    if "design" not in payload:
        raise SpecError("job spec requires a 'design'")
    design = payload["design"]
    if isinstance(design, str):
        from repro.designs.benchmarks import BENCHMARKS

        if design not in BENCHMARKS:
            raise SpecError(
                f"unknown benchmark {design!r}; one of "
                f"{sorted(BENCHMARKS)} (or pass generator parameters)"
            )
    elif isinstance(design, dict):
        from repro.designs.generator import DesignSpec

        try:
            DesignSpec.from_params(design)
        except ValueError as exc:
            raise SpecError(str(exc))
    else:
        raise SpecError(
            "'design' must be a benchmark name or a generator "
            "parameter object"
        )

    def _choice(key: str, choices) -> str:
        value = payload.get(key, getattr(JobSpec, key))
        if value not in choices:
            raise SpecError(f"{key!r} must be one of {list(choices)}")
        return value

    def _int(key: str, minimum: int) -> int:
        value = payload.get(key, getattr(JobSpec, key))
        if not isinstance(value, int) or isinstance(value, bool):
            raise SpecError(f"{key!r} must be an integer")
        if value < minimum:
            raise SpecError(f"{key!r} must be >= {minimum}")
        return value

    routing = payload.get("routing", JobSpec.routing)
    if not isinstance(routing, bool):
        raise SpecError("'routing' must be a boolean")
    env = payload.get("env", {})
    if not isinstance(env, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in env.items()
    ):
        raise SpecError("'env' must map strings to strings")
    disallowed = sorted(set(env) - set(_ALLOWED_ENV))
    if disallowed:
        raise SpecError(
            f"env key(s) {disallowed} not allowed; only "
            f"{list(_ALLOWED_ENV)} may be injected"
        )
    return JobSpec(
        design=design,
        flow=_choice("flow", FLOW_CHOICES),
        tool=_choice("tool", TOOL_CHOICES),
        clustering=_choice("clustering", CLUSTERING_CHOICES),
        shapes=_choice("shapes", SHAPES_CHOICES),
        routing=routing,
        jobs=_int("jobs", 1),
        seed=_int("seed", 0),
        env=dict(env),
    )


def spec_to_argv(
    spec: JobSpec, job_dir: str, cache_dir: Optional[str]
) -> List[str]:
    """Compile a spec to the exact ``repro flow`` argv the runner execs.

    The job's telemetry + monitor land in ``job_dir`` (so
    ``status.json`` / ``events.jsonl`` double as the wire format) and
    its QoR report in ``job_dir/result.json``.
    """
    argv = ["flow"]
    if isinstance(spec.design, str):
        argv += ["--benchmark", spec.design]
    else:
        argv += ["--generator", json.dumps(spec.design, sort_keys=True)]
    argv += [
        "--flow", spec.flow,
        "--tool", spec.tool,
        "--clustering", spec.clustering,
        "--shapes", spec.shapes,
        "--jobs", str(spec.jobs),
        "--seed", str(spec.seed),
        "--telemetry", job_dir,
        "--monitor",
        "--report", f"{job_dir}/{RESULT_FILENAME}",
    ]
    if not spec.routing:
        argv.append("--no-routing")
    if cache_dir and spec.flow == "ours":
        argv += ["--cache", cache_dir]
    if spec.flow == "ours":
        # Every served "ours" job leaves a stage checkpoint behind, so
        # POST /jobs/<id>/eco can re-open it for incremental edits.
        argv += ["--checkpoint", f"{job_dir}/{CHECKPOINT_DIRNAME}"]
    return argv


def eco_to_argv(
    eco: Dict[str, Any], job_dir: str, cache_dir: Optional[str]
) -> List[str]:
    """Compile a job's ``eco`` payload to the ``repro eco`` argv.

    The edit script itself is written to ``job_dir/edits.json`` by the
    runner (the payload carries the edits inline); the updated QoR +
    reuse summary lands in ``job_dir/result.json`` like any flow job's
    report, and telemetry/monitor land in ``job_dir`` so the live
    ``status.json`` endpoints work unchanged.
    """
    argv = [
        "eco",
        str(eco["checkpoint_dir"]),
        "--edits", f"{job_dir}/{ECO_EDITS_FILENAME}",
        "--report", f"{job_dir}/{RESULT_FILENAME}",
        "--telemetry", job_dir,
        "--monitor",
    ]
    if cache_dir:
        argv += ["--cache", cache_dir]
    return argv


#: QoR-report keys that carry wall-clock measurements; everything else
#: in a ``result.json`` is deterministic for a given spec.
_RUNTIME_KEYS = ("runtimes_s", "placement_runtime_s")


def deterministic_qor(report: Dict[str, Any]) -> Dict[str, Any]:
    """A QoR report minus its wall-clock fields.

    Two runs of the same spec produce byte-identical JSON dumps of
    this projection — the serve acceptance gate for "cache speed
    without QoR drift".
    """
    out = {k: v for k, v in report.items() if k not in _RUNTIME_KEYS}
    selection = out.get("shape_selection")
    if isinstance(selection, dict):
        out["shape_selection"] = {
            k: v for k, v in selection.items() if k != "runtime_s"
        }
    return out
