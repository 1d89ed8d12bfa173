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

* ``warm_speedup``  = cold flow wall / warm flow wall (gate: >= 5x);
* ``cold_overhead`` = cold sweep wall / nocache sweep wall - 1 (the
  digest + key + atomic-write bookkeeping; gate: <= 5%);
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
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))

from benchmarks.bench_flow_e2e import run_design  # noqa: E402

SCHEMA = "repro.bench_cache/1"

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


def run_modes(
    design: str, seed: int, jobs: int, repeats: int
) -> Dict[str, Any]:
    """Measure nocache / cold / warm; best-of-``repeats`` sweep walls."""
    nocache = run_design(design, seed=seed, repeats=repeats, jobs=jobs)

    scratch = tempfile.mkdtemp(prefix="bench_cache_")
    try:
        # Cold: a fresh store per repeat so no repeat ever hits.
        cold: Optional[Dict[str, Any]] = None
        for rep in range(max(1, repeats)):
            directory = os.path.join(scratch, f"cold{rep}")
            record = run_design(
                design, seed=seed, repeats=1, jobs=jobs, cache_dir=directory
            )
            if cold is None or _sweep_wall(record) < _sweep_wall(cold):
                cold = record
        assert cold is not None
        if cold["counters"].get("vpr.cache.hit", 0):
            raise AssertionError("cold run hit the cache")
        if not cold["counters"].get("vpr.cache.store", 0):
            raise AssertionError("cold run stored nothing")

        # Warm: every repeat reads the store the last cold run wrote.
        warm_dir = os.path.join(scratch, f"cold{max(1, repeats) - 1}")
        warm = run_design(
            design, seed=seed, repeats=repeats, jobs=jobs, cache_dir=warm_dir
        )
        if not (
            warm["counters"].get("cache.stage.hit", 0)
            or warm["counters"].get("vpr.cache.hit", 0)
        ):
            raise AssertionError("warm run never hit the cache")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for label, record in (("cold", cold), ("warm", warm)):
        if record["hashes"] != nocache["hashes"]:
            raise AssertionError(
                f"{label} run diverged from the cache-free baseline: "
                f"{record['hashes']} vs {nocache['hashes']}"
            )

    cold_wall = _sweep_wall(cold)
    nocache_wall = _sweep_wall(nocache)
    return {
        "design": design,
        "seed": seed,
        "jobs": jobs,
        "repeats": repeats,
        "nocache": _mode_summary(nocache),
        "cold": _mode_summary(cold),
        "warm": _mode_summary(warm),
        "warm_speedup": round(
            float(cold["wall_total"]) / max(float(warm["wall_total"]), 1e-9), 3
        ),
        "cold_overhead": round(cold_wall / max(nocache_wall, 1e-9) - 1.0, 4),
        "identical_hashes": True,  # asserted above
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--design", default="aes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N sweep walls (cold gets a fresh store per repeat)",
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

    t0 = time.perf_counter()
    result = run_modes(args.design, args.seed, args.jobs, args.repeats)
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
    print(
        f"warm speedup {result['warm_speedup']:.1f}x, "
        f"cold overhead {result['cold_overhead'] * 100:+.1f}%, "
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
