"""The spine's one command.

Driver form — one workload, one pass, last stdout line is the result::

    python3 benchmarks/spine/run.py --workload sweep_cold --seed 0 \\
        --seconds 15 --trace 0

Developer form — every workload in its own child process, one after
another, optionally with the traced pass, collected into a document
that ``compare.py`` reads::

    python3 benchmarks/spine/run.py [--seed S] [--repeats R] [--trace] \\
        [--out FILE]

(``python -m benchmarks.spine.run`` works too from the repository root.)
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.spine import harness, stats  # noqa: E402

SCHEMA = "spine/1"

#: What this host cannot measure, and is therefore not reported as a
#: number at all (ROADMAP forbids the injected-delay substitute).
UNMEASURABLE = {
    "pool_scaling": "jobs>1 fork-pool speed-up: two shared cores cannot "
    "show scaling of a CPU-bound sweep",
    "fleet_speedup": "worker-fleet speed-up: same two cores; the old gate "
    "rode on an injected per-item sleep",
    "serve_concurrency": "two-client serve loop: the second vCPU delivers "
    "0-1 core from minute to minute (two busy processes: 1.0x-2.5x solo time)",
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, trace_file: Optional[str]
) -> Dict[str, Any]:
    """One pass of one workload in this process; returns the result
    object the driver reads (and prints the human-readable lines)."""
    harness.pin_threads()
    harness.require_program()
    spec = harness.load_benchmark_json()
    problems = harness.benchmark_json_problems(spec)
    if problems:
        raise harness.HarnessError("BENCHMARK.json: " + "; ".join(problems))
    declared = spec["per_layer"] if trace else spec["end_to_end"]

    probe_before_import = harness.speed_probe()
    import_start = time.perf_counter()
    from benchmarks.spine import layers
    from benchmarks.spine.trace import OP_SETUP, Tracer
    from benchmarks.spine.workloads import WORKLOADS
    from repro import perf

    import_s = harness.host_normalised(
        time.perf_counter() - import_start,
        probe_before_import,
        harness.speed_probe(),
    )
    if name not in WORKLOADS:
        raise harness.HarnessError(
            f"unknown workload {name!r}; one of {sorted(WORKLOADS)}"
        )

    header = harness.host_header()
    print(f"# spine {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# host {json.dumps(header, sort_keys=True)}")

    with harness.exclusive_workdir() as workdir:
        tracer = Tracer() if trace else None
        workload = WORKLOADS[name](seed, workdir, tracer)
        try:
            setup_times: List[float] = []
            for unit in range(workload.units):
                tracing = tracer.installed(OP_SETUP) if trace else nullcontext()
                probe = harness.speed_probe()
                start = time.perf_counter()
                with tracing:
                    workload.setup_unit(unit)
                elapsed = time.perf_counter() - start
                setup_times.append(
                    harness.host_normalised(elapsed, probe, harness.speed_probe())
                )
            perf.reset()
            harness.reset_peak_rss()
            workload.warmup()
            samples, loop_wall = workload.measure(seconds)
            closing_probe = harness.speed_probe()
            counters = dict(perf.report().counters)
            qor = workload.finish()
        finally:
            workload.close()

        failed = sum(1 for s in samples if s.failures)
        if workload.extra_failures:
            failed += 1
        attempted = len(samples) + 1  # the series-level checks are one more
        for sample in samples:
            for failure in sample.failures:
                print(f"CHECK FAILED (op on input {sample.group}): {failure}")
        for failure in workload.extra_failures:
            print(f"CHECK FAILED (series): {failure}")

        if trace:
            values = layers.per_layer(
                workload,
                samples,
                loop_wall,
                counters,
                qor,
                harness.calibration_seconds(),
                header["nproc"],
            )
            for statement, holds in layers.reconciliation(values):
                print(f"# reconcile: {statement}: {'ok' if holds else 'VIOLATED'}")
            if trace_file:
                tracer.write(trace_file)
                print(f"# wrote {len(tracer.spans)} spans to {trace_file}")
        else:
            # Each op is normalised by the probes on either side of it
            # (the next op's probe, or the closing one, is its "after").
            probes = [s.probe_s for s in samples] + [closing_probe]
            walls = [
                harness.host_normalised(s.raw_s, probes[i], probes[i + 1])
                for i, s in enumerate(samples)
            ]
            groups: Dict[int, List[float]] = {}
            for sample, wall in zip(samples, walls):
                groups.setdefault(sample.group, []).append(wall)
            values = {
                "setup_s": import_s + stats.quartiles(setup_times)[1],
                "wall_s": stats.grouped_typical(groups),
                "peak_rss_mb": workload.peak_rss_mb or harness.peak_rss_mb(),
                "hpwl_um": qor["hpwl_um"],
                "rwl_um": qor["rwl_um"],
                "power_mw": qor["power_mw"],
                "worst_path_ns": qor["worst_path_ns"],
            }
            q1, median, q3 = stats.quartiles(walls)
            tail = stats.highest_supported_percentile(len(walls))
            raw = stats.quartiles([s.raw_s for s in samples])[1]
            print(
                f"# op wall (host-normalised; raw median {raw:.4f}s, probe "
                f"{stats.quartiles(probes)[1] * 1e3:.1f} ms vs reference "
                f"{harness.REFERENCE_PROBE_S * 1e3:.0f} ms): n={len(walls)} median={median:.4f}s "
                f"q1={q1:.4f}s q3={q3:.4f}s over {len(groups)} input group(s), "
                f"{len(samples) / loop_wall:.3f} ops/s; "
                + (
                    f"p{tail}={stats.percentile(walls, tail):.4f}s is the "
                    "highest percentile with >=10 samples beyond it"
                    if tail
                    else "too few samples for a tail percentile"
                )
            )
            print(
                f"# set-up: import {import_s:.3f}s + median of "
                f"{len(setup_times)} units {[round(t, 3) for t in setup_times]}"
            )

    if trace:
        # A layer this workload never enters reads 0, by name.
        values = {**{m["name"]: 0.0 for m in declared}, **values}
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise harness.HarnessError(
            f"metric names out of step with BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    metrics = {}
    for entry in declared:
        metric_name = entry["name"]
        metrics[metric_name] = {
            "value": float(values[metric_name]),
            "unit": entry["unit"],
        }
        print(f"{name} {metric_name} = {values[metric_name]:.6g} {entry['unit']}")
    print(
        f"{name} fail_ratio = {failed}/{attempted} "
        f"({'all checks passed' if not failed else 'CHECKS FAILED'})"
    )
    for what, why in UNMEASURABLE.items():
        print(f"{name} {what} = unmeasurable ({why})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _child(
    workload: str, seed: int, seconds: int, trace: int, trace_file: Optional[str]
) -> Optional[Dict[str, Any]]:
    """One pass in a child process; None when it produced no result."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace_file:
        command += ["--trace-file", trace_file]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        print(f"FAILED: {workload} seed {seed} trace {trace} exited {done.returncode}")
        return None
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own child process, one at a time."""
    spec = harness.load_benchmark_json()
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for repeat in range(args.repeats):
        seed = args.seed + repeat
        for entry in spec["workloads"]:
            passes = [0, 1] if args.trace else [0]
            for trace in passes:
                trace_file = None
                if trace and args.out:
                    trace_file = f"{args.out}.{entry['name']}.seed{seed}.trace.json"
                result = _child(entry["name"], seed, seconds, trace, trace_file)
                runs.append(
                    {
                        "workload": entry["name"],
                        "seed": seed,
                        "trace": trace,
                        "result": result,
                    }
                )
    document = {
        "schema": SCHEMA,
        "host": harness.host_header(),
        "seconds": seconds,
        "runs": runs,
        "unmeasurable": UNMEASURABLE,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {args.out}")
    bad = [r for r in runs if r["result"] is None or not r["result"]["correct"]]
    for run in bad:
        print(f"NOT CORRECT: {run['workload']} seed {run['seed']} trace {run['trace']}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=int, default=0,
        help="timed-series length (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics); 0: end-to-end metrics",
    )
    parser.add_argument("--trace-file", help="write the span records here")
    parser.add_argument("--repeats", type=int, default=1, help="all-workload mode")
    parser.add_argument("--out", help="all-workload mode: write the document here")
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        seconds = args.seconds or harness.load_benchmark_json()["run_seconds"]
        result = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.trace_file
        )
    except harness.HarnessError as exc:
        print(f"spine: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
