"""Per-layer metrics: which span, counter or stage clock feeds each name.

Times are raw (not host-normalised) busy seconds per traced operation (summed span durations
divided by the number of traced operations); counts are the program's
own ``repro.perf`` counters per traced operation.  Set-up spans
(checkpoint writes, snapshot encode / decode) are per set-up unit.
A name a workload does no work for reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from benchmarks.spine.stats import percentile
from benchmarks.spine.trace import OP_SETUP, SpanSummary, Tracer, summarize
from benchmarks.spine.workloads import ECO_STAGES, FLOW_STAGES, Sample, Workload

#: metric -> span whose summed duration per traced operation it is.
SPAN_TOTAL = {
    "vpr.select_s": "vpr.select",
    "vpr.extract_s": "vpr.extract",
    "place.global_s": "place.global",
    "place.problem_build_s": "place.problem",
    "place.b2b_solve_s": "place.b2b_solve",
    "route.global_s": "route.global",
    "route.rsmt_s": "route.rsmt",
    "route.cts_s": "route.cts",
    "sta.graph_build_s": "sta.graph_build",
    "sta.update_full_s": "sta.update_full",
    "sta.update_incr_s": "sta.update_incr",
    "sta.activity_s": "sta.activity",
    "sta.power_s": "sta.power",
    "cluster.fc_s": "cluster.fc",
    "core.ppa_clustering_s": "core.ppa_clustering",
    "core.clustered_netlist_s": "core.clustered_netlist",
    "core.seeded_s": "core.seeded",
    "ml.select_s": "ml.select",
    "ml.features_s": "ml.features",
    "ml.predict_s": "ml.predict",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "cache.touch_s": "cache.touch",
    "cache.key_s": "cache.key",
}
SPAN_CALLS = {
    "place.global_calls": ("place.global",),
    "route.global_calls": ("route.global",),
    "cluster.fc_calls": ("cluster.fc",),
    "ml.predict_calls": ("ml.predict",),
    "sta.update_calls": ("sta.update_full", "sta.update_incr"),
}
#: metric -> span summed over the set-up phase, per set-up unit.
SETUP_SPAN_TOTAL = {
    "recovery.save_stage_s": "recovery.save_stage",
    "recovery.load_stage_s": "recovery.load_stage",
    "netlist.snapshot_encode_s": "netlist.snapshot_encode",
    "netlist.snapshot_decode_s": "netlist.snapshot_decode",
}
#: Program counters reported per traced operation, under their own name.
COUNTERS = (
    "vpr.candidates_evaluated",
    "vpr.subnetlist.hit",
    "vpr.subnetlist.miss",
    "vpr.item.retry",
    "vpr.item.terminal",
    "b2b.solves",
    "b2b.cg_iterations",
    "steiner.rsmt.hit",
    "steiner.rsmt.miss",
    "sta.incremental.arcs_evaluated",
    "sta.incremental.arcs_skipped",
    "sta.graph.recompiled",
    "vpr.cache.hit",
    "vpr.cache.miss",
    "vpr.cache.store",
    "vpr.cache.touch",
    "eco.clusters.dirty",
    "eco.clusters.reused",
    "eco.vpr.resweep",
    "eco.place.freed",
)
#: Medians over set-up units of what the workloads time themselves.
SETUP_NOTES = (
    "designs.generate_s",
    "ml.train_s",
    "eco.open_s",
    "serve.daemon_start_s",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    workload: Workload,
    samples: Sequence[Sample],
    loop_wall: float,
    counters: Dict[str, int],
    qor: Dict[str, float],
    calib_s: float,
    nproc: int,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (missing names = 0)."""
    tracer: Tracer = workload.tracer
    spans = tracer.spans
    ops: SpanSummary = summarize(spans, lambda op: op >= 0)
    setup: SpanSummary = summarize(spans, lambda op: op == OP_SETUP)
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    n = max(len(traced), 1)
    out: Dict[str, float] = {}

    for metric, span in SPAN_TOTAL.items():
        out[metric] = ops.total.get(span, 0.0) / n
    out["vpr.self_s"] = ops.self_time.get("vpr.select", 0.0) / n
    out["vpr.eval_median_s"] = ops.median("vpr.evaluate")
    for metric, names in SPAN_CALLS.items():
        out[metric] = sum(ops.calls.get(name, 0) for name in names) / n
    for metric, span in SETUP_SPAN_TOTAL.items():
        out[metric] = setup.total.get(span, 0.0) / workload.units
    for name in COUNTERS:
        out[name] = counters.get(name, 0) / n

    out["place.cg_iters_per_solve"] = _ratio(out["b2b.cg_iterations"], out["b2b.solves"])
    out["route.rsmt_hit_ratio"] = _ratio(
        out["steiner.rsmt.hit"], out["steiner.rsmt.hit"] + out["steiner.rsmt.miss"]
    )
    out["sta.incr_skip_ratio"] = _ratio(
        out["sta.incremental.arcs_skipped"],
        out["sta.incremental.arcs_skipped"] + out["sta.incremental.arcs_evaluated"],
    )
    out["cache.hit_ratio"] = _ratio(
        out["vpr.cache.hit"], out["vpr.cache.hit"] + out["vpr.cache.miss"]
    )
    out["eco.reuse_ratio"] = _ratio(
        out["eco.clusters.reused"],
        out["eco.clusters.reused"] + out["eco.clusters.dirty"],
    )

    # The program's own stage clocks, and what they leave unattributed.
    stage_names: List[str] = [f"flow.stage.{k}_s" for k in FLOW_STAGES]
    stage_names += list(ECO_STAGES)
    for name in stage_names:
        out[name] = sum(s.stages.get(name, 0.0) for s in traced) / n
    wall = sum(s.raw_s for s in traced) / n
    flow_named = sum(out[f"flow.stage.{k}_s"] for k in FLOW_STAGES)
    eco_named = sum(out[name] for name in ECO_STAGES)
    out["flow.unattributed_share"] = 1.0 - _ratio(flow_named, wall) if flow_named else 0.0
    out["eco.unattributed_share"] = 1.0 - _ratio(eco_named, wall) if eco_named else 0.0

    for name in SETUP_NOTES:
        values = workload.setup_detail.get(name)
        out[name] = statistics.median(values) if values else 0.0

    if traced and untraced:
        out["trace.overhead_share"] = (
            statistics.median(s.raw_s for s in traced)
            / statistics.median(s.raw_s for s in untraced)
            - 1.0
        )
    else:
        out["trace.overhead_share"] = 0.0
    plain = untraced or samples
    out["wall.raw_s"] = statistics.median(s.raw_s for s in plain)
    out["wall.p75_s"] = percentile([s.raw_s for s in plain], 75)
    out["host.speed_probe_s"] = statistics.median(s.probe_s for s in samples)
    out["wall.ops_per_s"] = len(samples) / loop_wall
    out["sta.wns_ns"] = qor["wns_ns"]
    out["sta.tns_ns"] = qor["tns_ns"]
    out["host.calib_s"] = calib_s
    out["host.nproc"] = float(nproc)
    out.update(workload.layer_extras())
    out["eco.free_share"] = _ratio(out["eco.place.freed"], out["designs.instances"])
    return out


def reconciliation(values: Dict[str, float]) -> List[Tuple[str, bool]]:
    """Do the layers of one traced run add up?  (statement, holds)."""
    rows = [("trace.overhead_share <= 0.10", values["trace.overhead_share"] <= 0.10)]
    if values["flow.stage.incremental_place_s"] > 0:
        kernels = values["place.b2b_solve_s"] + values["route.rsmt_s"]
        callers = values["place.global_s"] + values["route.global_s"]
        stages = (
            values["vpr.select_s"]
            + values["core.seeded_s"]
            + values["flow.stage.route_s"]
        )
        rows += [
            (
                "flow.stage.*_s cover >= 90% of the op wall",
                values["flow.unattributed_share"] <= 0.10,
            ),
            (
                "place.b2b_solve_s + route.rsmt_s <= place.global_s + route.global_s",
                kernels <= callers,
            ),
            (
                "place.global_s + route.global_s <= vpr.select_s + core.seeded_s "
                "+ flow.stage.route_s",
                callers <= stages,
            ),
        ]
    return rows
