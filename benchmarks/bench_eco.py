"""ECO delta-path benchmark: cold re-run vs incremental -> BENCH_eco.json.

Measures the PR-10 contract on one generated design:

* ``base``  — a cold clustered flow on the pristine design, writing the
  stage checkpoint and evaluation cache the ECO path consumes;
* ``cold``  — a cold flow on the *edited* design (the pre-ECO answer to
  "one cell changed": rerun everything), best-of-``repeats`` walls;
* ``eco``   — :func:`repro.eco.run_eco` over the base checkpoint with
  the same edit script, best-of-``repeats`` walls.  Each repeat opens a
  fresh session, so the measured wall includes checkpoint hydration —
  the honest CLI-shaped cost, not just the warm ``apply``;
* ``noop``  — an empty edit script, which must reproduce the base
  run's metrics bit-for-bit (it serves the checkpointed QoR).

``speedup`` = cold wall / eco wall is printed and recorded, never
gated: it is a ratio of two walls on whatever host runs this, and it
falls whenever the cold flow it divides by gets faster (13x when ECO
landed, 8-10x since the sweep halved).  The gated ECO wall is
``eco_session wall_s`` on the measurement spine (``BENCHMARK.json``).

Gates (recorded in the JSON next to the measurements), for an edit
touching < 1% of instances:

* ``hpwl_drift``  = |eco HPWL - cold HPWL| / cold HPWL, gate <= 5%
  (the frozen majority constrains the incremental placement, so the
  two answers differ but must stay close);
* ``noop_identical`` — exact metric equality with the base run.

Usage::

    python benchmarks/bench_eco.py --gate \
        --json benchmarks/results/BENCH_eco.json
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

from repro.core.flow import ClusteredPlacementFlow, FlowConfig  # noqa: E402
from repro.core.ppa_clustering import PPAClusteringConfig  # noqa: E402
from repro.core.shapes import default_candidate_grid  # noqa: E402
from repro.core.vpr import VPRConfig  # noqa: E402
from repro.designs import DesignSpec, generate_design  # noqa: E402
from repro.designs.nangate45 import make_library  # noqa: E402
from repro.eco import apply_edits, parse_edits, run_eco  # noqa: E402

SCHEMA = "repro.bench_eco/1"

#: Acceptance gates (see module docstring).
MAX_HPWL_DRIFT = 0.05
MAX_TOUCHED_FRACTION = 0.01

_METRIC_FIELDS = ("hpwl", "rwl", "wns", "tns", "power", "hold_wns", "hold_tns")


def _spec(num_instances: int, seed: int) -> DesignSpec:
    return DesignSpec(
        "eco_bench",
        num_instances,
        clock_period=0.8,
        logic_depth=10,
        hierarchy_depth=3,
        hierarchy_branching=3,
        seed=seed,
    )


def _flow_config(
    checkpoint_dir: Optional[str], cache_dir: Optional[str]
) -> FlowConfig:
    return FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=200),
        vpr_config=VPRConfig(
            min_cluster_instances=100,
            max_vpr_clusters=16,
            placer_iterations=4,
            candidates=default_candidate_grid()[:6],
        ),
        run_routing=False,
        checkpoint_dir=checkpoint_dir,
        cache_dir=cache_dir,
    )


def _edit_script(design) -> List[Dict[str, Any]]:
    """One resize: the canonical sub-1%-of-instances ECO."""
    victim = next(
        inst
        for inst in design.instances
        if inst.master.name == "NAND2_X1" and not inst.fixed
    )
    return [
        {"kind": "resize", "instance": victim.name, "master": "NAND2_X2"}
    ]


def _edited_design(num_instances: int, seed: int, edits):
    design = generate_design(_spec(num_instances, seed))
    if "NAND2_X2" not in design.masters:
        design.add_master(make_library()["NAND2_X2"])
    apply_edits(design, parse_edits(edits))
    return design


def _metrics_dict(metrics) -> Dict[str, Optional[float]]:
    return {field: getattr(metrics, field) for field in _METRIC_FIELDS}


def run_bench(
    num_instances: int, seed: int, repeats: int
) -> Dict[str, Any]:
    scratch = tempfile.mkdtemp(prefix="bench_eco_")
    ckpt = os.path.join(scratch, "ckpt")
    cache = os.path.join(scratch, "cache")
    try:
        # Base run: the checkpointed cold flow every ECO shortcuts.
        t0 = time.perf_counter()
        base = ClusteredPlacementFlow(_flow_config(ckpt, cache)).run(
            generate_design(_spec(num_instances, seed))
        )
        base_wall = time.perf_counter() - t0

        edits = _edit_script(generate_design(_spec(num_instances, seed)))
        touched_fraction = 1.0 / num_instances

        # Cold arm: full flow on the edited design, no checkpoint and a
        # fresh (empty) cache per repeat — the pre-ECO workflow.
        cold_wall = float("inf")
        cold_result = None
        for rep in range(max(1, repeats)):
            design = _edited_design(num_instances, seed, edits)
            config = _flow_config(None, os.path.join(scratch, f"cc{rep}"))
            t0 = time.perf_counter()
            result = ClusteredPlacementFlow(config).run(design)
            wall = time.perf_counter() - t0
            if wall < cold_wall:
                cold_wall, cold_result = wall, result

        # ECO arm: checkpoint + warm cache; fresh session per repeat.
        eco_wall = float("inf")
        eco_result = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = run_eco(ckpt, parse_edits(edits), cache_dir=cache)
            wall = time.perf_counter() - t0
            if wall < eco_wall:
                eco_wall, eco_result = wall, result

        # No-op arm: bit-identity against the base run's metrics.
        noop = run_eco(ckpt, [], cache_dir=cache)
        noop_identical = all(
            getattr(noop.metrics, field) == getattr(base.metrics, field)
            for field in _METRIC_FIELDS
        )

        assert cold_result is not None and eco_result is not None
        hpwl_cold = cold_result.metrics.hpwl
        hpwl_eco = eco_result.metrics.hpwl
        return {
            "num_instances": num_instances,
            "seed": seed,
            "repeats": repeats,
            "edits": edits,
            "touched_fraction": touched_fraction,
            "base": {
                "wall_s": round(base_wall, 4),
                "metrics": _metrics_dict(base.metrics),
            },
            "cold": {
                "wall_s": round(cold_wall, 4),
                "metrics": _metrics_dict(cold_result.metrics),
            },
            "eco": {
                "wall_s": round(eco_wall, 4),
                "metrics": _metrics_dict(eco_result.metrics),
                "dirty_clusters": len(eco_result.dirty_clusters),
                "reused_clusters": eco_result.reused_clusters,
                "free_instances": eco_result.free_instances,
                "total_instances": eco_result.total_instances,
                "runtimes_s": {
                    k: round(v, 4) for k, v in eco_result.runtimes.items()
                },
            },
            "noop": {
                "identical": noop_identical,
                "metrics": _metrics_dict(noop.metrics),
            },
            "speedup": round(cold_wall / max(eco_wall, 1e-9), 2),
            "hpwl_drift": round(
                abs(hpwl_eco - hpwl_cold) / max(hpwl_cold, 1e-9), 5
            ),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--repeats", type=int, default=2, help="best-of-N walls per arm"
    )
    parser.add_argument(
        "--json", default="benchmarks/results/BENCH_eco.json", metavar="PATH"
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="enforce the drift / no-op gates (exit 1 on failure)",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    result = run_bench(args.instances, args.seed, args.repeats)
    result["schema"] = SCHEMA
    result["gates"] = {
        "max_hpwl_drift": MAX_HPWL_DRIFT,
        "max_touched_fraction": MAX_TOUCHED_FRACTION,
    }

    directory = os.path.dirname(args.json)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(args.json, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

    eco = result["eco"]
    print(
        f"{args.instances} instances: cold={result['cold']['wall_s']:.2f}s "
        f"eco={eco['wall_s']:.2f}s -> {result['speedup']:.1f}x, not gated "
        f"(edit touches {result['touched_fraction'] * 100:.3f}% of cells)"
    )
    print(
        f"eco re-placed {eco['free_instances']}/{eco['total_instances']} "
        f"cells across {eco['dirty_clusters']} dirty clusters "
        f"({eco['reused_clusters']} reused); HPWL drift "
        f"{result['hpwl_drift'] * 100:.2f}%; "
        f"no-op identical: {result['noop']['identical']}"
    )
    print(f"wrote {args.json} ({time.perf_counter() - t0:.1f}s total)")

    if args.gate:
        failed = False
        if result["touched_fraction"] > MAX_TOUCHED_FRACTION:
            print(
                f"GATE FAILED: edit touches "
                f"{result['touched_fraction'] * 100:.2f}% of instances "
                f"(needs < {MAX_TOUCHED_FRACTION * 100:.0f}%)"
            )
            failed = True
        if result["hpwl_drift"] > MAX_HPWL_DRIFT:
            print(
                f"GATE FAILED: HPWL drift {result['hpwl_drift'] * 100:.2f}% "
                f"> {MAX_HPWL_DRIFT * 100:.0f}%"
            )
            failed = True
        if not result["noop"]["identical"]:
            print("GATE FAILED: no-op ECO diverged from the base run")
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
