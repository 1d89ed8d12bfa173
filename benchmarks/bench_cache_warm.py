"""Cross-run cache benchmark: cold vs warm flow -> BENCH_cache.json.

Runs the clustered flow on one benchmark three ways at a fixed seed:

* ``nocache`` — no evaluation cache at all (the pre-cache baseline);
* ``cold``    — a fresh cache directory per repeat: every candidate
  evaluation is computed and stored (measures bookkeeping overhead);
* ``warm``    — the cache directory the cold run populated: every
  flow stage is served from disk (a warm run counts as warm with stage
  hits or item hits).

Recorded per mode: the V-P&R sweep's stage wall, the whole flow's
wall, the flow's identity hashes (cluster assignment, selected shapes,
flat placement, QoR) and the ``vpr.cache.*`` / ``cache.stage.*``
counters.  A stage-served run sweeps nothing, so its reported sweep
wall is the recorded one.  The headline numbers:

* ``warm_speedup``  = best cold flow wall / best warm flow wall (gate:
  >= 5x);
* ``cold_overhead`` = the median, over ``--pairs`` back-to-back
  (nocache, cold) pairs whose order alternates, of cold sweep wall /
  nocache sweep wall, minus 1 (the digest + key + atomic-write
  bookkeeping; gate: <= 5%).  One aes sweep is ~0.1 s, so each arm of
  a pair times ``SWEEPS_PER_RUN`` flows back to back (the cold arm on
  a fresh store each) and sums their sweep walls.  The nocache arm's
  own spread is reported as ``nocache_iqr`` (interquartile range /
  median of its summed sweep walls), and when that spread exceeds the
  5% bound the gate cannot tell a 5% overhead from noise: it prints
  ``unresolved`` and exits 2, never passing;
* identity — warm results must be byte-identical to cold and to the
  cache-free baseline (all four hashes).

Usage::

    python benchmarks/bench_cache_warm.py --design aes \
        --json benchmarks/results/BENCH_cache.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))

from benchmarks.bench_flow_e2e import run_design  # noqa: E402

SCHEMA = "repro.bench_cache/3"

#: Flows timed per arm of a (nocache, cold) pair; the arm's sweep wall
#: is their sum.
SWEEPS_PER_RUN = 16

#: Acceptance gates (recorded in the JSON next to the measurements).
MIN_WARM_SPEEDUP = 5.0
MAX_COLD_OVERHEAD = 0.05

_CACHE_COUNTERS = (
    "vpr.cache.hit",
    "vpr.cache.miss",
    "vpr.cache.store",
    "vpr.cache.evict",
    "cache.stage.hit",
    "cache.stage.miss",
    "cache.stage.store",
)


def _sweep_wall(record: Dict[str, Any]) -> float:
    return float(record["stages"].get("vpr", 0.0))


def _mode_summary(record: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "sweep_wall_s": _sweep_wall(record),
        "wall_total_s": float(record["wall_total"]),
        "hashes": record["hashes"],
        "cache_counters": {
            k: record["counters"].get(k, 0) for k in _CACHE_COUNTERS
        },
    }


def run_modes(design: str, seed: int, jobs: int, pairs: int) -> Dict[str, Any]:
    """Measure nocache and cold pairwise (the order alternating from
    pair to pair, each arm ``SWEEPS_PER_RUN`` flows, cold on a fresh
    store each time), then warm."""
    nocache_sums: List[float] = []
    cold_sums: List[float] = []
    nocache_runs: List[Dict[str, Any]] = []
    cold_runs: List[Dict[str, Any]] = []
    # One unmeasured run first: the process's first flow pays one-off
    # costs (lazy imports, first-touch allocations) no pair should carry.
    run_design(design, seed=seed, repeats=1, jobs=jobs)
    scratch = tempfile.mkdtemp(prefix="bench_cache_")
    try:
        for rep in range(pairs):
            for cold in (False, True) if rep % 2 == 0 else (True, False):
                records = [
                    run_design(
                        design, seed=seed, repeats=1, jobs=jobs,
                        cache_dir=(
                            os.path.join(scratch, f"cold{rep}.{k}") if cold else None
                        ),
                    )
                    for k in range(SWEEPS_PER_RUN)
                ]
                (cold_runs if cold else nocache_runs).extend(records)
                (cold_sums if cold else nocache_sums).append(
                    sum(_sweep_wall(r) for r in records)
                )
        for cold in cold_runs:
            if cold["counters"].get("vpr.cache.hit", 0):
                raise AssertionError("cold run hit the cache")
            if not cold["counters"].get("vpr.cache.store", 0):
                raise AssertionError("cold run stored nothing")

        # Warm: every repeat reads the store the last cold run wrote.
        warm = run_design(
            design, seed=seed, repeats=pairs, jobs=jobs,
            cache_dir=os.path.join(scratch, f"cold{pairs - 1}.{SWEEPS_PER_RUN - 1}"),
        )
        if not (
            warm["counters"].get("cache.stage.hit", 0)
            or warm["counters"].get("vpr.cache.hit", 0)
        ):
            raise AssertionError("warm run never hit the cache")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    nocache = nocache_runs[0]
    for label, record in [("cold", r) for r in cold_runs] + [("warm", warm)]:
        if record["hashes"] != nocache["hashes"]:
            raise AssertionError(
                f"{label} run diverged from the cache-free baseline: "
                f"{record['hashes']} vs {nocache['hashes']}"
            )

    ratios = [c / max(n, 1e-9) for n, c in zip(nocache_sums, cold_sums)]
    q1, _q2, q3 = statistics.quantiles(nocache_sums, n=4)
    cold = min(cold_runs, key=lambda r: float(r["wall_total"]))
    return {
        "design": design,
        "seed": seed,
        "jobs": jobs,
        "pairs": pairs,
        "sweeps_per_run": SWEEPS_PER_RUN,
        "nocache": _mode_summary(min(nocache_runs, key=_sweep_wall)),
        "cold": _mode_summary(min(cold_runs, key=_sweep_wall)),
        "warm": _mode_summary(warm),
        "warm_speedup": round(
            float(cold["wall_total"]) / max(float(warm["wall_total"]), 1e-9), 3
        ),
        "cold_overhead_ratios": [round(r, 4) for r in ratios],
        "cold_overhead": round(statistics.median(ratios) - 1.0, 4),
        "nocache_iqr": round(
            (q3 - q1) / max(statistics.median(nocache_sums), 1e-9), 4
        ),
        "nocache_sweep_walls_s": [round(w, 4) for w in nocache_sums],
        "identical_hashes": True,  # asserted above
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--design", default="aes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--pairs",
        type=int,
        default=5,
        help="(nocache, cold) run pairs, order alternating; each arm runs "
        "SWEEPS_PER_RUN flows, cold on a fresh store each (at least 2)",
    )
    parser.add_argument(
        "--json",
        default="benchmarks/results/BENCH_cache.json",
        metavar="PATH",
    )
    parser.add_argument(
        "--no-gates",
        action="store_true",
        help="record measurements without enforcing the speedup/overhead gates",
    )
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to measure a spread")

    t0 = time.perf_counter()
    result = run_modes(args.design, args.seed, args.jobs, args.pairs)
    result["schema"] = SCHEMA
    result["gates"] = {
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "max_cold_overhead": MAX_COLD_OVERHEAD,
    }

    directory = os.path.dirname(args.json)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(args.json, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"{result['design']}: sweep cold={result['cold']['sweep_wall_s']:.3f}s "
        f"nocache={result['nocache']['sweep_wall_s']:.3f}s; flow "
        f"cold={result['cold']['wall_total_s']:.3f}s "
        f"warm={result['warm']['wall_total_s']:.3f}s"
    )
    resolved = result["nocache_iqr"] <= MAX_COLD_OVERHEAD
    print(
        f"warm speedup {result['warm_speedup']:.1f}x, "
        f"cold overhead {result['cold_overhead'] * 100:+.1f}% (median of "
        f"{result['pairs']} paired ratios; nocache IQR "
        f"{result['nocache_iqr'] * 100:.1f}%"
        f"{'' if resolved else ', unresolved'}), "
        f"hashes identical across all modes"
    )
    print(f"wrote {args.json} ({time.perf_counter() - t0:.1f}s total)")

    if not args.no_gates:
        if result["warm_speedup"] < MIN_WARM_SPEEDUP:
            print(
                f"GATE FAILED: warm speedup {result['warm_speedup']:.2f}x "
                f"< {MIN_WARM_SPEEDUP}x"
            )
            return 1
        if not resolved:
            print(
                f"GATE UNRESOLVED: cold overhead unresolved — the nocache "
                f"sweep's own IQR is {result['nocache_iqr'] * 100:.1f}% of its "
                f"median, over the {MAX_COLD_OVERHEAD * 100:.0f}% bound"
            )
            return 2
        if result["cold_overhead"] > MAX_COLD_OVERHEAD:
            print(
                f"GATE FAILED: cold overhead "
                f"{result['cold_overhead'] * 100:.1f}% "
                f"> {MAX_COLD_OVERHEAD * 100:.0f}%"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
