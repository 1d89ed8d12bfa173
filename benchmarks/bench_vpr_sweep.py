"""Figure 3 / design-choice ablations of the V-P&R framework.

Regenerates the per-cluster cost surface over the 20 shape candidates
(the data behind Figure 3's selection step), and ablates two of the
paper's fixed hyperparameters: the congestion weight delta (0.01) and
the Congestion Cost percentile X (10), plus the 200-instance
eligibility bound.
"""

import numpy as np
import pytest

from benchmarks._tables import format_table, publish
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import VPRConfig, VPRFramework
from repro.db.database import DesignDatabase
from repro.designs import load_benchmark

_STATE = {}


def _sweep():
    design = load_benchmark("jpeg", use_cache=False)
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=200)
    )
    members = clustering.members()
    config = VPRConfig(min_cluster_instances=100, placer_iterations=5)
    framework = VPRFramework(config)
    eligible = framework.config.eligible_clusters(members)
    cluster = eligible[0]
    sweep = framework.sweep_cluster(design, members[cluster], cluster_id=cluster)
    return design, members, cluster, config, sweep


def test_vpr_cost_surface(benchmark):
    design, members, cluster, config, sweep = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    _STATE.update(
        design=design, members=members, cluster=cluster, config=config, sweep=sweep
    )
    rows = []
    for ev in sweep.evaluations:
        rows.append(
            [
                f"{ev.candidate.aspect_ratio:.2f}",
                f"{ev.candidate.utilization:.2f}",
                f"{ev.hpwl_cost:.4f}",
                f"{ev.congestion_cost:.4f}",
                f"{ev.total(config.delta):.4f}",
                "<-- best" if ev.candidate == sweep.best else "",
            ]
        )
    text = format_table(
        f"Figure 3: V-P&R cost surface (jpeg, cluster {cluster}, "
        f"{len(members[cluster])} instances)",
        ["AR", "Util", "Cost_HPWL", "Cost_Cong", "Total", ""],
        rows,
        note=f"Chosen shape: {sweep.best}; sweep runtime {sweep.runtime:.2f}s.",
    )
    publish("vpr_cost_surface", text)
    totals = [ev.total(config.delta) for ev in sweep.evaluations]
    assert max(totals) > min(totals), "shapes must be distinguishable"


def test_vpr_delta_ablation(benchmark):
    sweep = _STATE.get("sweep")
    if sweep is None:
        pytest.skip("sweep stage did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for delta in (0.0, 0.01, 0.1, 1.0):
        best = min(sweep.evaluations, key=lambda e: e.total(delta))
        rows.append(
            [f"{delta:.2f}", str(best.candidate), f"{best.total(delta):.4f}"]
        )
    text = format_table(
        "Ablation: congestion weight delta in Total Cost",
        ["delta", "Chosen shape", "Total Cost"],
        rows,
        note="The paper fixes delta = 0.01 following MAPLE [13].",
    )
    publish("vpr_delta_ablation", text)
    assert rows


def test_vpr_eligibility_bound(benchmark):
    members = _STATE.get("members")
    if members is None:
        pytest.skip("sweep stage did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for bound in (50, 100, 200, 400):
        framework = VPRFramework(VPRConfig(min_cluster_instances=bound))
        eligible = framework.config.eligible_clusters(members)
        swept_insts = sum(len(members[c]) for c in eligible)
        total = sum(len(m) for m in members)
        rows.append(
            [bound, len(eligible), f"{100 * swept_insts / total:.0f}%"]
        )
    text = format_table(
        "Ablation: V-P&R eligibility bound (paper default: 200 instances)",
        ["Min instances", "Eligible clusters", "Instances covered"],
        rows,
        note="Footnote 3: 200 gave the best PPA in the paper's tuning.",
    )
    publish("vpr_eligibility", text)
    assert rows
