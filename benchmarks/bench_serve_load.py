"""Serve load gate: N clients hammering one daemon on one shared cache.

Launches ``repro serve`` as a real subprocess (ephemeral port,
discovered via ``server.json``), then runs ``--clients`` closed-loop
client threads, each submitting every one of ``--designs`` generated
designs ``--repeats`` times and waiting for completion before the next
submission.  Every job's submit-to-terminal latency is recorded; the
run reports throughput, latency percentiles (p50/p95/p99) and the
shared cache's warm-hit ratio into ``BENCH_serve.json``.

``--gate`` (used by ``make serve-smoke`` and CI) additionally asserts:

* every job finished ``done`` (crash containment never tripped);
* repeat traffic hit the warm path (``vpr.cache.hit`` > 0 overall);
* p99 latency under ``--max-p99`` seconds;
* warm jobs beat cold jobs by at least ``--min-speedup`` (mean runner
  wall seconds, cold = jobs with cache misses, warm = jobs served
  entirely from cache);
* the daemon shuts down cleanly (``POST /shutdown`` -> exit code 0);
* no descendant of the daemon — the runner zygote or any runner it
  forked — is still alive once the daemon has exited (Linux: the tree
  is sampled from ``/proc/*/stat`` parent pids while the load runs).

The report also carries the daemon's own ``/stats`` latency block
(p50 / p95 queue wait, runner start and run seconds).

Usage::

    python benchmarks/bench_serve_load.py --gate \
        --json benchmarks/results/BENCH_serve.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SCHEMA = "repro.bench_serve/1"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile; q in [0, 100]."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, int(round(q / 100.0 * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


def _process_table() -> Dict[int, Tuple[str, int, str]]:
    """pid -> (state, parent pid, start time) from ``/proc/*/stat``."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # The command name may hold spaces and parentheses.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(entry)] = (fields[0], int(fields[1]), fields[19])
    return table


class _TreeWatch(threading.Thread):
    """Samples the daemon's process tree: every pid ever seen below it,
    with its start time (so a recycled pid is not mistaken for it)."""

    def __init__(self, root: int, interval: float = 0.1) -> None:
        super().__init__(name="tree-watch", daemon=True)
        self.root = root
        self.interval = interval
        self.seen: Dict[int, str] = {}
        self.halt = threading.Event()

    def sample(self) -> None:
        table = _process_table()
        children: Dict[int, List[int]] = {}
        for pid, (_, ppid, _) in table.items():
            children.setdefault(ppid, []).append(pid)
        stack = list(children.get(self.root, []))
        while stack:
            pid = stack.pop()
            self.seen[pid] = table[pid][2]
            stack.extend(children.get(pid, []))

    def run(self) -> None:
        while not self.halt.wait(self.interval):
            self.sample()

    def survivors(self) -> List[int]:
        """Seen descendants that still run (zombies do not)."""
        table = _process_table()
        return sorted(
            pid
            for pid, start in self.seen.items()
            if pid in table
            and table[pid][2] == start
            and table[pid][0] not in ("Z", "X")
        )


def _designs(count: int, instances: int) -> List[Dict[str, Any]]:
    return [
        {
            "design": {
                "name": f"load{i}",
                "num_instances": instances,
                "seed": 100 + i,
            },
            "routing": False,
        }
        for i in range(count)
    ]


def _client_loop(
    client, specs: List[Dict[str, Any]], repeats: int,
    records: List[Dict[str, Any]], lock: threading.Lock,
) -> None:
    """One closed-loop client: submit, wait, record, repeat."""
    for rep in range(repeats):
        for spec in specs:
            t0 = time.perf_counter()
            job_id = client.submit(spec)
            final = client.wait(job_id, timeout=600.0)
            latency = time.perf_counter() - t0
            with lock:
                records.append(
                    {
                        "job_id": job_id,
                        "design": final.get("design"),
                        "repeat": rep,
                        "state": final["state"],
                        "latency_s": latency,
                        "wall_s": final.get("wall_s") or 0.0,
                        "counters": final.get("counters") or {},
                    }
                )


def measure(
    clients: int = 4,
    designs: int = 2,
    repeats: int = 2,
    workers: int = 2,
    instances: int = 1500,
) -> Dict[str, Any]:
    """One daemon, ``clients`` threads, ``designs * repeats`` jobs each."""
    from repro.serve import ServeClient

    run_root = tempfile.mkdtemp(prefix="repro-serve-bench-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if p
    )
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--run-root", run_root, "--port", "0",
            "--workers", str(workers),
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    stats: Dict[str, Any] = {}
    clean_shutdown = False
    watch = _TreeWatch(daemon.pid) if os.path.isdir("/proc") else None
    leaked: List[int] = []
    if watch is not None:
        watch.start()
    try:
        base = ServeClient.discover(run_root, timeout=60.0)
        specs = _designs(designs, instances)
        t0 = time.perf_counter()
        threads = [
            threading.Thread(
                # One ServeClient per thread: urllib openers are not
                # meant to be shared across threads.
                target=_client_loop,
                args=(ServeClient(base.url), specs, repeats, records, lock),
                name=f"client-{i}",
            )
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        stats = ServeClient(base.url).stats()
        if watch is not None:
            watch.halt.set()
            watch.join()
            watch.sample()
        base.shutdown()
        clean_shutdown = daemon.wait(timeout=60.0) == 0
        if watch is not None:
            leaked = watch.survivors()
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
        shutil.rmtree(run_root, ignore_errors=True)

    latencies = [r["latency_s"] for r in records]
    # The speedup arms compare runner wall (started -> finished), not
    # client-observed latency: queue wait under N closed-loop clients
    # on fewer workers would otherwise blur cold vs warm.
    cold = [
        r["wall_s"]
        for r in records
        if r["counters"].get("vpr.cache.miss", 0) > 0
    ]
    warm = [
        r["wall_s"]
        for r in records
        if r["counters"].get("vpr.cache.hit", 0) > 0
        and r["counters"].get("vpr.cache.miss", 0) == 0
    ]
    total_hits = sum(r["counters"].get("vpr.cache.hit", 0) for r in records)
    cold_mean = sum(cold) / len(cold) if cold else 0.0
    warm_mean = sum(warm) / len(warm) if warm else 0.0
    return {
        "schema": SCHEMA,
        "config": {
            "clients": clients,
            "designs": designs,
            "repeats": repeats,
            "workers": workers,
            "instances": instances,
        },
        "jobs": {
            "total": len(records),
            "done": sum(1 for r in records if r["state"] == "done"),
            "failed": sum(1 for r in records if r["state"] == "failed"),
            "cold": len(cold),
            "warm": len(warm),
        },
        "wall_s": wall,
        "throughput_jobs_per_s": len(records) / wall if wall else 0.0,
        "latency_s": {
            "mean": sum(latencies) / len(latencies) if latencies else 0.0,
            "p50": _percentile(latencies, 50),
            "p95": _percentile(latencies, 95),
            "p99": _percentile(latencies, 99),
            "max": max(latencies) if latencies else 0.0,
            "cold_mean": cold_mean,
            "warm_mean": warm_mean,
        },
        "warm_speedup": cold_mean / warm_mean if warm_mean else 0.0,
        "cache": stats.get("cache", {}),
        "server_latency": stats.get("latency", {}),
        "warm_hits_total": total_hits,
        "clean_shutdown": clean_shutdown,
        "descendants": {
            "checked": watch is not None,
            "seen": len(watch.seen) if watch is not None else 0,
            "alive_after_exit": leaked,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--designs", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--instances", type=int, default=1500,
        help="generated-design size; must be large enough that "
        "clustering yields clusters over min_cluster_instances (200), "
        "or shape selection never touches the cache",
    )
    parser.add_argument("--json", help="write the report here")
    parser.add_argument(
        "--gate", action="store_true",
        help="assert the serve acceptance criteria (exit 1 on failure)",
    )
    parser.add_argument(
        "--max-p99", type=float, default=60.0,
        help="p99 submit-to-done latency gate in seconds",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.1,
        help="warm jobs must beat cold jobs by this factor",
    )
    args = parser.parse_args(argv)

    report = measure(
        clients=args.clients,
        designs=args.designs,
        repeats=args.repeats,
        workers=args.workers,
        instances=args.instances,
    )
    print(
        "serve-load: {total} jobs ({done} done, {failed} failed) in "
        "{wall:.1f}s = {thr:.2f} jobs/s; p99 {p99:.2f}s; "
        "warm speedup {speedup:.2f}x; warm-hit ratio {ratio:.2f}; "
        "clean shutdown: {clean} ({alive} of {seen} descendants alive "
        "after exit)".format(
            total=report["jobs"]["total"],
            done=report["jobs"]["done"],
            failed=report["jobs"]["failed"],
            wall=report["wall_s"],
            thr=report["throughput_jobs_per_s"],
            p99=report["latency_s"]["p99"],
            speedup=report["warm_speedup"],
            ratio=report["cache"].get("warm_hit_ratio", 0.0),
            clean=report["clean_shutdown"],
            alive=len(report["descendants"]["alive_after_exit"]),
            seen=report["descendants"]["seen"],
        )
    )
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"serve-load: wrote {args.json}")

    if args.gate:
        failures = []
        if report["jobs"]["failed"]:
            failures.append(f"{report['jobs']['failed']} job(s) failed")
        if report["warm_hits_total"] <= 0:
            failures.append("no warm cache hits recorded")
        if report["latency_s"]["p99"] > args.max_p99:
            failures.append(
                f"p99 {report['latency_s']['p99']:.2f}s > {args.max_p99:g}s"
            )
        if report["warm_speedup"] < args.min_speedup:
            failures.append(
                f"warm speedup {report['warm_speedup']:.2f}x < "
                f"{args.min_speedup:g}x"
            )
        if not report["clean_shutdown"]:
            failures.append("daemon did not shut down cleanly")
        elif report["descendants"]["alive_after_exit"]:
            failures.append(
                "descendant(s) of the daemon still alive after it exited: "
                f"pids {report['descendants']['alive_after_exit']}"
            )
        if failures:
            for failure in failures:
                print(f"serve-load: GATE FAILED: {failure}")
            return 1
        print("serve-load: gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
