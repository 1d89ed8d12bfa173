"""Fleet identity gate: the distributed V-P&R sweep on local workers.

Runs one shape-selection sweep four ways on a generated design:

* **serial** — the in-process reference (``jobs=1``);
* **fleet x1** — one forked socket worker (protocol + transfer
  overhead against serial);
* **fleet x2** — two forked socket workers (``jobs=2``);
* **fleet x2 +kill** (``--kill``) — two workers, one armed via
  ``REPRO_FAULTS=kill:vpr.item`` to SIGKILL-style ``os._exit`` inside
  the first item it evaluates, proving a dead worker's items are
  recomputed by the sweep without touching QoR.

Every arm's selection is reduced to a canonical JSON document and
SHA-256 hashed; **all hashes must be identical** — the fleet's
bit-identity contract (docs/performance.md, "Distributed sweep").

``--gate`` (used by ``make fleet-smoke`` and CI) additionally asserts:

* the kill arm really lost a worker (``vpr.fleet.worker_lost`` >= 1)
  and the sweep recomputed the lost items in its own process
  (``vpr.worker.error`` >= 1, ``vpr.item.terminal`` == 0), still
  producing the identical hash;
* every forked worker process exited (clean shutdown, no leaks).

Wall-clock per arm is printed but not gated: two busy worker processes
on a shared small host measure the hypervisor, not the fleet
(``benchmarks/spine/README.md`` lists ``fleet_speedup`` as
unmeasurable), and the simulated per-item delay that once stood in for
it is gone from the program.

Usage::

    python benchmarks/bench_fleet_scaling.py --gate --kill \
        --json benchmarks/results/BENCH_fleet.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SCHEMA = "repro.bench_fleet/1"


def _build_problem(instances: int, seed: int):
    from repro.core.ppa_clustering import (
        PPAClusteringConfig,
        ppa_aware_clustering,
    )
    from repro.db.database import DesignDatabase
    from repro.designs.generator import DesignSpec, generate_design

    design = generate_design(
        DesignSpec(name="fleetbench", num_instances=instances, seed=seed)
    )
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=150)
    )
    return design, clustering.members()


def _selection_sha256(sweeps) -> str:
    """Canonical hash of a sweep's full QoR surface.

    Covers every (cluster, candidate) cost pair and the chosen shape,
    so two arms hash equal iff their selections are byte-identical.
    """
    doc = [
        {
            "cluster": s.cluster_id,
            "best": [s.best.aspect_ratio, s.best.utilization],
            "evaluations": [
                [e.hpwl_cost, e.congestion_cost] for e in s.evaluations
            ],
        }
        for s in sorted(sweeps, key=lambda s: s.cluster_id)
    ]
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _run_arm(
    design,
    members,
    label: str,
    clusters: int,
    iterations: int,
    seed: int,
    fleet_workers: int = 0,
    kill_one: bool = False,
) -> Dict[str, Any]:
    from repro import perf
    from repro.core.fanout import FleetExecutor
    from repro.core.vpr import VPRConfig, VPRFramework

    config = VPRConfig(
        min_cluster_instances=60,
        max_vpr_clusters=clusters,
        placer_iterations=iterations,
        chunk_size=5,
        jobs=max(1, fleet_workers),
        # A one-worker fleet fans out only with a listen address set;
        # the factory below still forks its worker.
        fleet_listen="127.0.0.1:0" if fleet_workers == 1 else None,
        seed=seed,
    )
    framework = VPRFramework(config)
    executor_box: List[Any] = []
    if fleet_workers:
        # The kill arm arms worker 0 to die inside the first item it
        # evaluates (kill acts in worker processes only).
        env: List[Optional[Dict[str, str]]] = [None] * fleet_workers
        if kill_one:
            env[0] = {"REPRO_FAULTS": "kill:vpr.item"}

        def factory():
            executor = FleetExecutor(workers=fleet_workers, worker_env=env)
            executor_box.append(executor)
            return executor

        framework.executor_factory = factory

    perf.enable()
    perf.reset()
    cluster_ids = config.eligible_clusters(members)
    start = time.perf_counter()
    sweeps = framework.sweep_clusters(design, members, cluster_ids)
    wall = time.perf_counter() - start
    counters = dict(perf.report().counters)
    perf.disable()
    perf.reset()

    worker_exits: List[Optional[int]] = []
    for executor in executor_box:
        worker_exits.extend(executor.worker_exit_codes)
    return {
        "label": label,
        "wall_s": wall,
        "sha256": _selection_sha256(sweeps),
        "clusters": len(cluster_ids),
        "items": len(cluster_ids) * len(config.candidates),
        "workers_lost": counters.get("vpr.fleet.worker_lost", 0),
        "lost_items": counters.get("vpr.worker.error", 0),
        "terminal": counters.get("vpr.item.terminal", 0),
        "state_sent": counters.get("vpr.fleet.state_sent", 0),
        "state_bytes": counters.get("vpr.fleet.state_bytes", 0),
        "worker_exits": worker_exits,
    }


def measure(
    instances: int = 900,
    clusters: int = 3,
    iterations: int = 3,
    seed: int = 3,
    kill: bool = False,
) -> Dict[str, Any]:
    design, members = _build_problem(instances, seed)
    arms = [
        _run_arm(design, members, "serial", clusters, iterations, seed),
        _run_arm(
            design, members, "fleet x1", clusters, iterations, seed,
            fleet_workers=1,
        ),
        _run_arm(
            design, members, "fleet x2", clusters, iterations, seed,
            fleet_workers=2,
        ),
    ]
    if kill:
        arms.append(
            _run_arm(
                design, members, "fleet x2 +kill", clusters, iterations,
                seed, fleet_workers=2, kill_one=True,
            )
        )
    return {
        "schema": SCHEMA,
        "instances": instances,
        "cpu_count": os.cpu_count(),
        "arms": arms,
        "hashes_identical": len({arm["sha256"] for arm in arms}) == 1,
    }


def gate(result: Dict[str, Any], kill: bool) -> List[str]:
    failures: List[str] = []
    hashes = {arm["label"]: arm["sha256"] for arm in result["arms"]}
    if not result["hashes_identical"]:
        failures.append(f"QoR hashes differ across arms: {hashes}")
    for arm in result["arms"]:
        if any(code is None for code in arm["worker_exits"]):
            failures.append(
                f"{arm['label']}: worker(s) had to be killed at close()"
            )
        # Non-kill arms must shut down on the polite path (exit 0);
        # the kill arm's armed worker legitimately exits 117.
        if "kill" not in arm["label"] and any(
            code != 0 for code in arm["worker_exits"]
        ):
            failures.append(
                f"{arm['label']}: unclean worker exits "
                f"{arm['worker_exits']}"
            )
    if kill:
        kill_arm = result["arms"][-1]
        if kill_arm["workers_lost"] < 1:
            failures.append(
                "kill arm never lost a worker (fault did not fire)"
            )
        if kill_arm["lost_items"] < 1 or kill_arm["terminal"] != 0:
            failures.append(
                "kill arm's lost items were not recomputed by the sweep "
                f"(worker.error={kill_arm['lost_items']}, "
                f"item.terminal={kill_arm['terminal']})"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=900)
    parser.add_argument("--clusters", type=int, default=3)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--kill",
        action="store_true",
        help="add the worker-kill arm (one worker dies mid-sweep)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 unless identical hashes + lost items recomputed + "
        "clean shutdown",
    )
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args(argv)

    result = measure(
        instances=args.instances,
        clusters=args.clusters,
        iterations=args.iterations,
        seed=args.seed,
        kill=args.kill,
    )
    for arm in result["arms"]:
        print(
            f"{arm['label']:<16} wall {arm['wall_s']:7.2f}s  "
            f"sha {arm['sha256'][:12]}  lost={arm['workers_lost']} "
            f"recomputed={arm['lost_items']}"
        )
    print(f"hashes identical: {result['hashes_identical']}")

    failures = gate(result, args.kill) if args.gate else []
    result["gate_failures"] = failures

    if args.json_path:
        os.makedirs(
            os.path.dirname(os.path.abspath(args.json_path)), exist_ok=True
        )
        with open(args.json_path, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")

    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
