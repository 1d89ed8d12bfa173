"""Monitor overhead gate: the flight recorder must be (nearly) free.

Two claims are gated (docs/observability.md "Live monitoring"):

1. **Overhead** — running the aes flow with the monitor on (RSS/CPU
   sampler thread + progress accounting + status.json refreshes) costs
   at most ``--max-overhead`` (default 5%) extra wall over the same
   flow with telemetry alone.  Both arms are repeated and compared
   min-of-walls vs min-of-walls, so scheduler noise on a sub-second
   flow does not produce flaky verdicts.
2. **Identity** — the monitor is purely observational: the QoR record,
   every non-monitor metric stream and the selected shapes hash
   byte-identically between the two arms.

``--live`` instead runs the *process-level* smoke used by
``make monitor-smoke``: launch ``repro flow --telemetry DIR --monitor``
as a subprocess, poll ``DIR/status.json`` until progress advances
(asserting done <= total and monotonicity at every poll), render
``repro top DIR --once`` from this process, then require a final
``state: done`` document whose ``workers`` block lists each of the
``jobs`` fleet workers in phase ``shutdown``.

Usage::

    python benchmarks/bench_monitor_overhead.py --gate \
        --json benchmarks/results/BENCH_monitor.json
    python benchmarks/bench_monitor_overhead.py --live
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SCHEMA = "repro.bench_monitor/1"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _identity_hash(run_json_path: str) -> str:
    """Digest of everything the monitor must not change: QoR, the
    non-monitor metric streams and the selected shapes (timing fields
    stripped — walls legitimately differ between arms)."""
    with open(run_json_path) as handle:
        run = json.load(handle)
    qor = {
        k: v
        for k, v in sorted((run.get("qor") or {}).items())
        if "runtime" not in k  # wall-clock, legitimately differs
    }
    streams = {
        name: stream.get("values")
        for name, stream in sorted((run.get("metrics") or {}).items())
        if not name.startswith("monitor.")
    }
    shapes = [
        {
            k: v
            for k, v in event.items()
            if k not in ("schema", "seq", "t")
        }
        for event in run.get("events") or []
        if event.get("type") == "vpr.shape_selected"
    ]
    payload = {"qor": qor, "streams": streams, "shapes": shapes}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _run_flow_once(
    benchmark: str, seed: int, jobs: int, out_dir: str, monitored: bool
) -> float:
    """One subprocess flow run; returns its wall-clock seconds.

    Subprocesses (rather than in-process runs) keep the arms honest:
    each run pays interpreter + import + sampler lifecycle exactly as
    a user's run would, and no allocator state leaks between arms.
    """
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "flow",
        "--benchmark",
        benchmark,
        "--no-routing",
        "--seed",
        str(seed),
        "--jobs",
        str(jobs),
        "--telemetry",
        out_dir,
    ]
    if monitored:
        cmd.append("--monitor")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if p
    )
    t0 = time.perf_counter()
    subprocess.run(
        cmd, check=True, env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )
    return time.perf_counter() - t0


def measure(
    benchmark: str = "aes",
    seed: int = 0,
    jobs: int = 1,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Run both arms ``repeats`` times; min-of-walls + identity hashes."""
    base_dir = tempfile.mkdtemp(prefix="repro-monitor-bench-")
    walls: Dict[str, List[float]] = {"baseline": [], "monitored": []}
    hashes: Dict[str, str] = {}
    monitor_block: Optional[Dict[str, Any]] = None
    try:
        for rep in range(repeats):
            # Alternate arm order per repeat so slow-host drift (thermal,
            # cache warmup) cannot systematically favour one arm.
            arms = ["baseline", "monitored"]
            if rep % 2:
                arms.reverse()
            for arm in arms:
                out_dir = os.path.join(base_dir, f"{arm}-{rep}")
                wall = _run_flow_once(
                    benchmark, seed, jobs, out_dir, monitored=arm == "monitored"
                )
                walls[arm].append(wall)
                digest = _identity_hash(os.path.join(out_dir, "run.json"))
                previous = hashes.setdefault(arm, digest)
                assert previous == digest, (
                    f"{arm} arm not deterministic across repeats: "
                    f"{previous} vs {digest}"
                )
                if arm == "monitored" and monitor_block is None:
                    with open(os.path.join(out_dir, "run.json")) as handle:
                        monitor_block = json.load(handle).get("monitor")
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    baseline = min(walls["baseline"])
    monitored = min(walls["monitored"])
    overhead = (monitored - baseline) / baseline
    return {
        "schema": SCHEMA,
        "benchmark": benchmark,
        "seed": seed,
        "jobs": jobs,
        "repeats": repeats,
        "wall_s": {
            "baseline": walls["baseline"],
            "monitored": walls["monitored"],
        },
        "best_wall_s": {"baseline": baseline, "monitored": monitored},
        "overhead_frac": overhead,
        "identity": {
            "baseline": hashes["baseline"],
            "monitored": hashes["monitored"],
            "identical": hashes["baseline"] == hashes["monitored"],
        },
        "monitor": monitor_block,
    }


# ----------------------------------------------------------------------
# Live smoke (make monitor-smoke)
# ----------------------------------------------------------------------
def live_smoke(
    benchmark: str = "aes",
    seed: int = 0,
    jobs: int = 2,
    timeout: float = 120.0,
) -> Dict[str, Any]:
    """Launch a monitored flow, watch it live, assert the invariants."""
    from repro.monitor.status import load_status

    out_dir = tempfile.mkdtemp(prefix="repro-monitor-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if p
    )
    cmd = [
        sys.executable, "-m", "repro", "flow",
        "--benchmark", benchmark, "--no-routing",
        "--seed", str(seed), "--jobs", str(jobs),
        "--telemetry", out_dir, "--monitor",
    ]
    proc = subprocess.Popen(
        cmd, env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + timeout
    seen: Dict[str, int] = {}
    polls = advances = 0
    progressed = False
    try:
        # Poll until progress visibly advances (monotone at every poll).
        while time.monotonic() < deadline:
            status = load_status(out_dir)
            if status is not None:
                polls += 1
                for task in status.get("progress") or []:
                    name, done = task["name"], int(task["done"])
                    total = int(task["total"])
                    assert 0 <= done <= total, (name, done, total)
                    assert done >= seen.get(name, 0), (
                        f"progress went backwards: {name} "
                        f"{seen.get(name)} -> {done}"
                    )
                    if done > seen.get(name, 0):
                        advances += 1
                    seen[name] = done
                if advances and not progressed:
                    progressed = True
                    # Render one frame from *this* process while the
                    # run is (possibly still) in flight.
                    top = subprocess.run(
                        [sys.executable, "-m", "repro", "top", out_dir,
                         "--once"],
                        env=env, cwd=REPO_ROOT, capture_output=True,
                        text=True, timeout=30,
                    )
                    assert top.returncode == 0, top.stderr
                    assert "progress:" in top.stdout, top.stdout
            if proc.poll() is not None and progressed:
                break
            time.sleep(0.02)
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:  # pragma: no cover - only on timeout
            proc.kill()
            proc.wait()
    assert rc == 0, f"monitored flow exited {rc}"
    assert progressed, "status.json never showed progress advancing"
    final = load_status(out_dir)
    assert final is not None and final.get("state") == "done", final
    for task in final.get("progress") or []:
        assert task["done"] == task["total"], task
        assert task["finished"] is True, task
    workers = final.get("workers") or []
    assert len(workers) == jobs, f"expected {jobs} workers: {workers}"
    for worker in workers:
        assert worker["phase"] == "shutdown", worker
    result = {
        "schema": SCHEMA,
        "mode": "live",
        "benchmark": benchmark,
        "polls": polls,
        "advances": advances,
        "final_progress": final.get("progress"),
        "final_workers": [(w["host"], w["pid"]) for w in workers],
        "out_dir": out_dir,
    }
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="aes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="fail when monitored wall exceeds baseline by more than "
        "this fraction (default 0.05)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero on overhead or identity violations",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="run the process-level live smoke instead of the "
        "overhead measurement",
    )
    parser.add_argument("--json", help="write the result record here")
    args = parser.parse_args(argv)

    if args.live:
        record = live_smoke(
            benchmark=args.benchmark,
            seed=args.seed,
            jobs=max(2, args.jobs),
        )
        print(
            f"monitor live smoke: {record['advances']} progress "
            f"advance(s) over {record['polls']} polls; final "
            f"{[(t['name'], t['done'], t['total']) for t in record['final_progress']]}; "
            f"{len(record['final_workers'])} worker(s) shut down"
        )
    else:
        record = measure(
            benchmark=args.benchmark,
            seed=args.seed,
            jobs=args.jobs,
            repeats=args.repeats,
        )
        print(
            f"monitor overhead: baseline "
            f"{record['best_wall_s']['baseline']:.3f}s, monitored "
            f"{record['best_wall_s']['monitored']:.3f}s "
            f"({record['overhead_frac']:+.2%}); identity "
            f"{'OK' if record['identity']['identical'] else 'MISMATCH'}"
        )
        if args.gate:
            failures = []
            if not record["identity"]["identical"]:
                failures.append(
                    "monitored run changed QoR/streams/shapes: "
                    f"{record['identity']}"
                )
            if record["overhead_frac"] > args.max_overhead:
                failures.append(
                    f"overhead {record['overhead_frac']:.2%} exceeds "
                    f"{args.max_overhead:.0%}"
                )
            for failure in failures:
                print(f"FAIL: {failure}")
            if failures:
                return 1

    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
