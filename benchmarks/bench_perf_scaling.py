"""V-P&R engine scaling: sweep wall-clock vs ``jobs`` + cache rate.

Times the full shape-selection sweep at jobs = 1, 2, 4 on one design
and reports the sub-netlist cache hit rate the engine achieved.
The determinism contract (tests/core/test_vpr_parallel.py) means every
row selects identical shapes — only wall-clock may differ, so the table
is a pure throughput measurement.

On single-core containers the parallel rows mostly measure fleet
overhead; the interesting number there is the serial row against the
pre-optimisation baseline (see README "Performance").

Env knobs: ``REPRO_PERF_DESIGN`` picks the benchmark (default jpeg);
``REPRO_BENCH_SCALE`` < 1 shrinks the swept cluster count.
"""

import os
import time

from benchmarks._tables import bench_scale, format_table, publish
from repro import perf
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRShapeSelector
from repro.db.database import DesignDatabase
from repro.designs import load_benchmark

JOB_LEVELS = (1, 2, 4)


def _clusters():
    design = load_benchmark(
        os.environ.get("REPRO_PERF_DESIGN", "jpeg"), use_cache=False
    )
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=200)
    )
    return design, clustering.members()


def _timed_select(design, members, jobs, max_clusters):
    config = VPRConfig(
        min_cluster_instances=100,
        placer_iterations=5,
        max_vpr_clusters=max_clusters,
        jobs=jobs,
    )
    perf.enable()
    perf.reset()
    start = time.perf_counter()
    selection = VPRShapeSelector(config).select(design, members)
    wall = time.perf_counter() - start
    report = perf.report()
    perf.disable()
    perf.reset()
    return selection, wall, report


def test_perf_scaling(benchmark):
    design, members = benchmark.pedantic(_clusters, rounds=1, iterations=1)
    max_clusters = max(1, int(6 * bench_scale()))

    rows = []
    reference = None
    for jobs in JOB_LEVELS:
        label = str(jobs)
        if jobs > 1 and not hasattr(os, "fork"):
            rows.append([label, "n/a", "n/a", "fork unavailable"])
            continue
        selection, wall, report = _timed_select(design, members, jobs, max_clusters)
        shapes = {
            s.cluster_id: (s.best.aspect_ratio, s.best.utilization)
            for s in selection.sweeps
        }
        if reference is None:
            reference = (wall, shapes)
        assert shapes == reference[1], "jobs must not change selection"
        sub_rate = report.cache_rate("vpr.subnetlist")
        rows.append(
            [
                label,
                f"{wall:.2f}",
                f"{reference[0] / wall:.2f}x",
                f"{100 * sub_rate:.0f}%" if sub_rate is not None else "-",
            ]
        )

    text = format_table(
        f"V-P&R engine scaling ({design.name}, {max_clusters} clusters x 20 shapes)",
        ["jobs", "wall [s]", "vs jobs=1", "subnet cache"],
        rows,
        note=(
            "Identical shapes at every jobs level (asserted). Parallel "
            "rows fan (cluster, candidate) items over a fleet of that "
            "many forked local workers; on "
            f"this host os.cpu_count()={os.cpu_count()}. The sub-netlist "
            "cache is per-framework, so it reads 0% here (each row builds "
            "a fresh selector); it pays off when one framework re-induces "
            "a cluster (ML labelling, L-shape sweeps)."
        ),
    )
    publish("perf_scaling", text)
    assert rows
