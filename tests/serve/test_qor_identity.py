"""Served QoR is byte-identical to a one-shot CLI ``flow`` run.

The serve runner compiles the job spec to CLI argv and calls
``repro.cli.main``, so the only legitimate differences are wall-clock
fields; :func:`deterministic_qor` strips those and the rest must match
byte-for-byte — cold, warm, served or not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
from repro.serve import deterministic_qor

from tests.serve.conftest import (
    TINY_DESIGN,
    TINY_SPEC,
    request,
    submit,
    wait_job,
)


def _cli_flow_report(tmp_path):
    """Run the literal CLI (own process, no cache, no telemetry)."""
    report_path = tmp_path / "cli-report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "flow",
            "--generator",
            json.dumps(TINY_DESIGN, sort_keys=True),
            "--no-routing",
            "--jobs",
            "1",
            "--seed",
            "0",
            "--report",
            str(report_path),
        ],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
        cwd=str(tmp_path),
    )
    return json.loads(report_path.read_text())


def _canonical(report) -> str:
    return json.dumps(deterministic_qor(report), sort_keys=True)


#: Stages a served "ours" job shares through the cache (``eco_base``
#: stays in the job's own checkpoint).
SHARED_STAGES = ("clustering", "vpr", "vpr_digests", "seeded", "metrics")


def test_served_qor_matches_cli_cold_and_warm(make_app, tmp_path):
    cli_bytes = _canonical(_cli_flow_report(tmp_path))

    app = make_app(workers=1)
    cold_id = submit(app, dict(TINY_SPEC))
    cold_record = wait_job(app, cold_id)
    assert cold_record["state"] == "done"
    assert cold_record["counters"].get("cache.stage.miss", 0) == len(SHARED_STAGES)
    _, cold = request(app, "GET", f"/jobs/{cold_id}/result")

    warm_id = submit(app, dict(TINY_SPEC))
    record = wait_job(app, warm_id)
    assert record["state"] == "done"
    counters = record["counters"]
    # Every stage is served from the cache; nothing is looked up and
    # missed, stage or item, and nothing is recomputed into the cache.
    assert counters.get("cache.stage.hit", 0) == len(SHARED_STAGES)
    assert counters.get("cache.stage.miss", 0) == 0
    assert counters.get("cache.stage.store", 0) == 0
    assert counters.get("vpr.cache.miss", 0) == 0
    # ... and still leaves a complete checkpoint for POST /jobs/<id>/eco.
    assert counters.get("recovery.stage.saved", 0) == len(SHARED_STAGES) + 1
    _, warm = request(app, "GET", f"/jobs/{warm_id}/result")

    assert _canonical(cold["qor"]) == cli_bytes
    # Cache speed without QoR drift: the warm run computes no stage
    # yet reports the exact same QoR bytes.
    assert _canonical(warm["qor"]) == cli_bytes
