"""End-to-end flow benchmark: per-stage wall times + QoR -> BENCH_flow.json.

Runs ``ClusteredPlacementFlow`` on the requested benchmarks at a fixed
seed and records, per design:

* per-stage wall-clock times (the ``runtimes`` dict the flow reports),
  including the paper's Table 2 "CPU" aggregate ``non_vpr_total``
  (hier_clustering + sta + clustering + cluster_place + seed +
  incremental_place);
* the QoR record (HPWL, and WNS/TNS/power when routing is enabled);
* identity hashes of the cluster assignment, the selected shapes, the
  final flat placement and the QoR values, so two runs of the flow can
  be asserted bit-identical;
* the ``repro.perf`` counters (cache hit rates, RSMT hits,
  ``sta.graph.recompiled``, ...).

Results are merged into ``BENCH_flow.json`` under a ``--label``
("before" / "after"); once both labels are present the speedup table
and hash-identity comparison are computed automatically, which is how
the committed before/after numbers in ``benchmarks/results/`` were
produced (see docs/performance.md).

With ``--run-json`` the same measurements are also emitted as a
``repro.telemetry/1`` run report whose metric streams
(``flow.wall.*``, ``flow.wallnorm.*``, ``qor.*``) feed the
``repro report diff`` regression gate used by the ``bench-flow`` CI
job (``make bench-flow``).  ``flow.wallnorm.*`` streams are wall times
divided by a fixed single-threaded NumPy calibration kernel measured
on the same host, so a 10% gate keeps meaning across machines of
different speeds.

Usage::

    python benchmarks/bench_flow_e2e.py --designs ariane,BlackParrot \
        --label after --json benchmarks/results/BENCH_flow.json
    python benchmarks/bench_flow_e2e.py --designs aes \
        --run-json bench-flow/run.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SCHEMA = "repro.bench_flow/1"

#: The Table 2 "CPU" column: every flow stage except the V-P&R sweep.
NON_VPR_STAGES = (
    "hier_clustering",
    "sta",
    "clustering",
    "cluster_place",
    "seed",
    "incremental_place",
)


def calibration_seconds(reps: int = 5) -> float:
    """A fixed single-threaded NumPy kernel; returns its best wall time.

    Used to express wall times in host-independent units
    (``flow.wallnorm.*``): sort + prefix-sum + gather over 1M doubles,
    which tracks the memory-bound NumPy work the flow itself does and
    does not depend on BLAS threading.
    """
    rng = np.random.default_rng(12345)
    data = rng.standard_normal(1_000_000)
    index = rng.integers(0, len(data), len(data))
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = np.sort(data, kind="stable")
        out = np.cumsum(out)
        out = out[index]
        float(out.sum())
        best = min(best, time.perf_counter() - t0)
    return best


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _qor_dict(metrics) -> Dict[str, float]:
    qor = {"hpwl": metrics.hpwl}
    for key in ("rwl", "wns", "tns", "power", "hold_wns", "hold_tns"):
        value = getattr(metrics, key, None)
        if value is not None:
            qor[key] = float(value)
    return qor


def run_design(
    name: str,
    seed: int = 0,
    routing: bool = False,
    repeats: int = 1,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the flow ``repeats`` times; best stage walls, first-run QoR.

    QoR and identity hashes are asserted identical across repeats (the
    flow is deterministic at a fixed seed), so taking the minimum wall
    time per stage never mixes results from different answers.
    """
    from repro import perf
    from repro.core import ClusteredPlacementFlow, FlowConfig
    from repro.designs import load_benchmark

    record: Optional[Dict[str, Any]] = None
    for rep in range(max(1, repeats)):
        design = load_benchmark(name, use_cache=False)
        perf.enable()
        perf.reset()
        config = FlowConfig(
            run_routing=routing, seed=seed, jobs=jobs, cache_dir=cache_dir
        )
        t0 = time.perf_counter()
        result = ClusteredPlacementFlow(config).run(design)
        wall_total = time.perf_counter() - t0
        counters = dict(perf.report().to_dict().get("counters") or {})
        # The per-design counter block always carries the evaluation
        # cache's hit/miss/store/evict counts (zeros when the counter
        # never fired), so warm/cold comparisons and the cache-smoke CI
        # job can read them without key-existence checks.
        for counter in (
            "vpr.cache.hit",
            "vpr.cache.miss",
            "vpr.cache.store",
            "vpr.cache.evict",
        ):
            counters.setdefault(counter, 0)
        perf.disable()

        runtimes = {k: float(v) for k, v in result.metrics.runtimes.items()}
        non_vpr = sum(runtimes.get(k, 0.0) for k in NON_VPR_STAGES)
        qor = _qor_dict(result.metrics)
        shapes = sorted(
            (int(c), float(s.aspect_ratio), float(s.utilization))
            for c, s in result.selection.shapes.items()
        )
        coords = np.concatenate(
            [
                np.array([i.x for i in design.instances], dtype=np.float64),
                np.array([i.y for i in design.instances], dtype=np.float64),
            ]
        )
        hashes = {
            "cluster_of": _sha(
                np.asarray(result.clustering.cluster_of, dtype=np.int64).tobytes()
            ),
            "shapes": _sha(repr(shapes).encode()),
            "placement": _sha(coords.tobytes()),
            "qor": _sha(
                json.dumps({k: repr(v) for k, v in qor.items()}, sort_keys=True).encode()
            ),
        }
        rep_record = {
            "design": name,
            "instances": design.num_instances,
            "nets": design.num_nets,
            "seed": seed,
            "routing": routing,
            "clusters": result.num_clusters,
            "stages": runtimes,
            "non_vpr_total": non_vpr,
            "wall_total": wall_total,
            "qor": qor,
            "hashes": hashes,
            "counters": counters,
        }
        if record is None:
            record = rep_record
        else:
            if record["hashes"] != hashes:
                raise AssertionError(
                    f"{name}: repeat {rep} diverged from repeat 0: "
                    f"{record['hashes']} vs {hashes}"
                )
            for key, value in runtimes.items():
                record["stages"][key] = min(record["stages"][key], value)
            record["non_vpr_total"] = sum(
                record["stages"].get(k, 0.0) for k in NON_VPR_STAGES
            )
            record["wall_total"] = min(record["wall_total"], wall_total)
    assert record is not None
    return record


# ----------------------------------------------------------------------
# BENCH_flow.json merging (before / after + speedups)
# ----------------------------------------------------------------------
def merge_bench_json(
    path: str, label: str, records: Dict[str, Dict[str, Any]], calib: float
) -> Dict[str, Any]:
    """Merge a labelled measurement set into BENCH_flow.json."""
    doc: Dict[str, Any] = {"schema": SCHEMA}
    if os.path.exists(path):
        with open(path) as handle:
            doc = json.load(handle)
        if doc.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: unexpected schema {doc.get('schema')!r}")
    doc.setdefault("non_vpr_stages", list(NON_VPR_STAGES))
    doc[label] = {
        "calibration_seconds": calib,
        "designs": records,
    }
    if "before" in doc and "after" in doc:
        doc["comparison"] = compare(doc["before"], doc["after"])
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


def compare(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Speedup table + identity verdicts for designs in both labels."""
    out: Dict[str, Any] = {}
    for name, b in before["designs"].items():
        a = after["designs"].get(name)
        if a is None:
            continue
        stages = {}
        for key in set(b["stages"]) | set(a["stages"]):
            bt, at = b["stages"].get(key), a["stages"].get(key)
            if bt and at:
                stages[key] = round(bt / at, 3)
        out[name] = {
            "non_vpr_total_before_s": round(b["non_vpr_total"], 4),
            "non_vpr_total_after_s": round(a["non_vpr_total"], 4),
            "non_vpr_speedup": round(b["non_vpr_total"] / a["non_vpr_total"], 3),
            "stage_speedups": stages,
            "identical_cluster_of": b["hashes"]["cluster_of"]
            == a["hashes"]["cluster_of"],
            "identical_shapes": b["hashes"]["shapes"] == a["hashes"]["shapes"],
            "identical_placement": b["hashes"]["placement"]
            == a["hashes"]["placement"],
            "identical_qor": b["hashes"]["qor"] == a["hashes"]["qor"],
        }
    return out


# ----------------------------------------------------------------------
# repro.telemetry/1 run report (the CI regression-gate artifact)
# ----------------------------------------------------------------------
def write_run_json(
    path: str, records: Dict[str, Dict[str, Any]], calib: float
) -> None:
    """Emit the measurements as a run report ``repro report diff`` groks.

    One-point metric streams per design:

    * ``flow.wall.<design>.<stage>`` and ``...non_vpr_total`` (seconds)
    * ``flow.wallnorm.<design>.non_vpr_total`` (calibration units; the
      10% wall-time gate stream — host-speed independent)
    * ``qor.<design>.<metric>`` (the any-regression QoR gate streams)
    """
    from repro.telemetry.report import RunReport

    metrics: Dict[str, Dict[str, Any]] = {}

    def stream(name: str, value: float) -> None:
        metrics[name] = {"steps": [0], "values": [float(value)]}

    for name, record in records.items():
        for stage, seconds in record["stages"].items():
            stream(f"flow.wall.{name}.{stage}", seconds)
        stream(f"flow.wall.{name}.non_vpr_total", record["non_vpr_total"])
        stream(
            f"flow.wallnorm.{name}.non_vpr_total",
            record["non_vpr_total"] / calib,
        )
        for metric, value in record["qor"].items():
            stream(f"qor.{name}.{metric}", value)
    report = RunReport(
        meta={
            "benchmark": "bench_flow_e2e",
            "designs": sorted(records),
            "seed": records[next(iter(records))]["seed"] if records else 0,
            "calibration_seconds": calib,
        },
        metrics=metrics,
    )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    report.write(path)


def gate_streams(records: Dict[str, Dict[str, Any]]) -> Dict[str, List[str]]:
    """The stream names the CI gate pins (missing => regression)."""
    wall = [f"flow.wallnorm.{name}.non_vpr_total" for name in sorted(records)]
    qor = [
        f"qor.{name}.{metric}"
        for name in sorted(records)
        for metric in sorted(records[name]["qor"])
    ]
    return {"wall": wall, "qor": qor}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--designs", default="ariane,BlackParrot", help="comma-separated"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--routing", action="store_true", help="run CTS+route+post-route STA"
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="evaluate V-P&R candidates through a cross-run cache in DIR "
        "(flow --cache); vpr.cache.* counters land in the counter block",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="merge results into this BENCH_flow.json under --label",
    )
    parser.add_argument("--label", default="after", choices=["before", "after"])
    parser.add_argument(
        "--run-json",
        default=None,
        metavar="PATH",
        help="also write a repro.telemetry/1 run report for `repro report diff`",
    )
    args = parser.parse_args(argv)

    calib = calibration_seconds()
    print(f"calibration kernel: {calib * 1e3:.1f} ms")
    records: Dict[str, Dict[str, Any]] = {}
    for name in [d.strip() for d in args.designs.split(",") if d.strip()]:
        t0 = time.perf_counter()
        record = run_design(
            name,
            seed=args.seed,
            routing=args.routing,
            repeats=args.repeats,
            jobs=args.jobs,
            cache_dir=args.cache,
        )
        records[record["design"]] = record
        print(
            f"{record['design']:<14} non_vpr={record['non_vpr_total']:.3f}s "
            f"vpr={record['stages'].get('vpr', 0.0):.3f}s "
            f"hpwl={record['qor']['hpwl']:.1f} "
            f"({time.perf_counter() - t0:.1f}s incl. load)"
        )
        for stage in NON_VPR_STAGES:
            if stage in record["stages"]:
                print(f"    {stage:<18}: {record['stages'][stage]:.3f} s")

    if args.json:
        doc = merge_bench_json(args.json, args.label, records, calib)
        print(f"wrote {args.json} [{args.label}]")
        for name, cmp in (doc.get("comparison") or {}).items():
            print(
                f"  {name}: non-vpr {cmp['non_vpr_total_before_s']:.3f}s -> "
                f"{cmp['non_vpr_total_after_s']:.3f}s "
                f"({cmp['non_vpr_speedup']:.2f}x), identical "
                f"cluster_of={cmp['identical_cluster_of']} "
                f"shapes={cmp['identical_shapes']} "
                f"placement={cmp['identical_placement']} "
                f"qor={cmp['identical_qor']}"
            )
    if args.run_json:
        write_run_json(args.run_json, records, calib)
        print(f"wrote {args.run_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
