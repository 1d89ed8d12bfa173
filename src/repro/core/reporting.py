"""QoR reporting: serialise flow results to JSON.

Real P&R tools end every run with a machine-readable QoR report; this
module provides the equivalent for :class:`~repro.core.flow.FlowResult`
so downstream scripts (regressions, dashboards) can consume flow
outcomes without touching Python objects.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.flow import FlowResult
from repro.netlist.design import Design


def flow_result_to_dict(
    result: FlowResult, design: Optional[Design] = None
) -> Dict[str, Any]:
    """Flatten a flow result into a JSON-serialisable dict."""
    m = result.metrics
    out: Dict[str, Any] = {
        "metrics": {
            "hpwl_um": m.hpwl,
            "routed_wirelength_um": m.rwl,
            "wns_ns": m.wns,
            "tns_ns": m.tns,
            "power_mw": m.power,
            "hold_wns_ns": m.hold_wns,
            "hold_tns_ns": m.hold_tns,
        },
        "runtimes_s": dict(m.runtimes),
        "placement_runtime_s": m.placement_runtime,
        "clustering": {
            "num_clusters": result.num_clusters,
            "singleton_clusters": result.singleton_clusters,
        },
    }
    if design is not None:
        out["design"] = {
            "name": design.name,
            "instances": design.num_instances,
            "nets": design.num_nets,
            "ports": len(design.ports),
            "clock_period_ns": design.clock_period,
            "die_width_um": design.floorplan.die_width,
            "die_height_um": design.floorplan.die_height,
        }
    if result.selection is not None:
        shapes = {
            str(cluster): {
                "aspect_ratio": shape.aspect_ratio,
                "utilization": shape.utilization,
            }
            for cluster, shape in sorted(result.selection.shapes.items())
        }
        out["shape_selection"] = {
            "swept_clusters": len(result.selection.sweeps),
            "skipped_clusters": result.selection.skipped_clusters,
            "runtime_s": result.selection.runtime,
            "shapes": shapes,
        }
    if result.clustering is not None and result.clustering.hierarchy is not None:
        hierarchy = result.clustering.hierarchy
        out["hierarchy_clustering"] = {
            "best_level": hierarchy.best_level,
            "rent_by_level": {
                str(level): rent
                for level, rent in sorted(hierarchy.rent_by_level.items())
            },
        }
    return out


def write_qor_json(
    path: str, result: FlowResult, design: Optional[Design] = None
) -> None:
    """Write the QoR report as JSON."""
    with open(path, "w") as handle:
        json.dump(flow_result_to_dict(result, design), handle, indent=2)
        handle.write("\n")


def flow_qor_summary(result: FlowResult) -> Dict[str, Any]:
    """Flat scalar QoR summary for a telemetry run report.

    A subset of :func:`flow_result_to_dict` with dotted keys matching
    the metric-stream namespace, so ``repro report diff`` can compare
    final stream values and end-of-run QoR under one naming scheme.
    """
    m = result.metrics
    out: Dict[str, Any] = {
        "qor.hpwl": m.hpwl,
        "qor.rwl": m.rwl,
        "qor.wns": m.wns,
        "qor.tns": m.tns,
        "qor.power": m.power,
        "qor.hold_wns": m.hold_wns,
        "qor.hold_tns": m.hold_tns,
        "qor.num_clusters": result.num_clusters,
        "qor.singleton_clusters": result.singleton_clusters,
        "qor.placement_runtime_s": m.placement_runtime,
    }
    return {k: v for k, v in out.items() if v is not None}

