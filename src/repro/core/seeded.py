"""Seeded placement (Algorithm 1, lines 15-25).

Two tool modes:

* **openroad** (lines 22-25): scale IO-net weights by 4 on the
  clustered netlist [9], place it, seed every flat instance at its
  cluster centre, and run incremental global placement.
* **innovus** (lines 16-20): place the clustered netlist, seed the
  instances, build region constraints from the cluster placement and
  the V-P&R shapes, run incremental placement under the regions, then
  remove the regions.

Since Cadence Innovus is not available in this reproduction, "innovus"
mode is our own placer configured the way the paper configures Innovus
(region constraints + incremental); see DESIGN.md's substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.clustered_netlist import ClusteredNetlist
from repro.netlist.design import Design
from repro.place.placer import GlobalPlacer, PlacerConfig, PlacementResult
from repro.place.problem import PlacementProblem
from repro.place.regions import RegionConstraint

#: IO-net weight multiplier of the OpenROAD-mode flow (line 22, [9]).
IO_NET_WEIGHT = 4.0


@dataclass
class SeededPlacementConfig:
    """Seeded placement knobs.

    Attributes:
        tool: "openroad" or "innovus".
        cluster_placer: Config for placing the clustered netlist.
        incremental_placer: Config for the flat incremental refinement.
        region_margin_factor: Innovus regions are the cluster-shape
            rectangle inflated by this factor.
    """

    tool: str = "openroad"
    # The clustered-netlist stage streams its convergence under
    # "gp.cluster.*"; the flat refinement keeps the canonical "gp.*"
    # streams (the run-report convergence plots).
    cluster_placer: PlacerConfig = field(
        default_factory=lambda: PlacerConfig(
            max_iterations=20, target_overflow=0.12, telemetry="gp.cluster"
        )
    )
    incremental_placer: PlacerConfig = field(
        default_factory=lambda: PlacerConfig(incremental=True, region_iterations=4)
    )
    region_margin_factor: float = 1.5


@dataclass
class SeededPlacementResult:
    """Outcome of seeded placement.

    Attributes:
        hpwl: Final flat HPWL (microns).
        cluster_result: Placer result of the clustered-netlist stage.
        incremental_result: Placer result of the flat refinement.
        runtimes: Stage -> seconds.
    """

    hpwl: float
    cluster_result: PlacementResult
    incremental_result: PlacementResult
    runtimes: Dict[str, float] = field(default_factory=dict)


def capture_placement_state(
    design: Design, result: SeededPlacementResult
) -> Dict[str, Any]:
    """Snapshot the committed seeded placement for checkpointing.

    The state is everything the rest of the flow consumes from this
    stage: the flat instance coordinates plus the result summary.
    Restoring it on a resumed run reproduces the placement bit for bit
    without re-running either placer (``docs/recovery.md``).
    """
    x, y = design.arrays().current_positions()
    return {"x": x, "y": y, "hpwl": result.hpwl, "runtimes": dict(result.runtimes)}


def restore_placement_state(design: Design, state: Dict[str, Any]) -> None:
    """Commit a checkpointed seeded placement back onto the design."""
    xs, ys = state["x"], state["y"]
    if len(xs) != design.num_instances:
        raise ValueError(
            f"checkpointed placement has {len(xs)} instances but the design "
            f"has {design.num_instances}; the netlist changed since the "
            "checkpoint was written"
        )
    # Fixed instances' coordinates are in the stage key: they match.
    design.set_positions(xs.tolist(), ys.tolist())


def _cluster_regions(
    clustered: ClusteredNetlist,
    margin_factor: float,
    vpr_cluster_ids: Sequence[int],
) -> List[RegionConstraint]:
    """Region constraints from cluster placements + V-P&R shapes.

    Only clusters whose shapes were V-P&R-estimated get regions
    (Algorithm 1, line 18).
    """
    fp = clustered.source.floorplan
    centers = clustered.cluster_centers()
    fixed = clustered.source.arrays().current_fixed()
    regions = []
    for c in vpr_cluster_ids:
        x, y = centers[c].tolist()
        macro = clustered.lef.macro_for(c)
        half_w = 0.5 * macro.width * margin_factor
        half_h = 0.5 * macro.height * margin_factor
        llx = max(fp.core_llx, x - half_w)
        urx = min(fp.core_urx, x + half_w)
        lly = max(fp.core_lly, y - half_h)
        ury = min(fp.core_ury, y + half_h)
        if urx <= llx or ury <= lly:
            continue
        members = np.asarray(clustered.members[c], dtype=np.int64)
        vertex_ids = members[~fixed[members]].tolist()
        regions.append(
            RegionConstraint(
                name=f"region_cluster_{c}",
                llx=llx,
                lly=lly,
                urx=urx,
                ury=ury,
                vertex_ids=vertex_ids,
            )
        )
    return regions


def seeded_placement(
    clustered: ClusteredNetlist,
    config: Optional[SeededPlacementConfig] = None,
    vpr_cluster_ids: Optional[Sequence[int]] = None,
) -> SeededPlacementResult:
    """Run the seeded placement of Algorithm 1, lines 15-25.

    Args:
        clustered: The clustered netlist (IO weights must already carry
            the OpenROAD-mode 4x scaling — build_clustered_netlist's
            ``io_net_weight`` argument); its ``net_weight_multipliers``
            scale the flat refinement's net weights too.
        config: Tool mode and placer knobs.
        vpr_cluster_ids: Clusters whose shapes came from V-P&R; only
            these get Innovus-mode region constraints.

    Returns:
        Result with the final flat HPWL; coordinates are committed to
        the source design.
    """
    config = config or SeededPlacementConfig()
    if config.tool not in ("openroad", "innovus"):
        raise ValueError(f"unknown tool {config.tool!r}")
    runtimes: Dict[str, float] = {}

    # --- Place the clustered netlist (line 16 / 23) ---------------------
    with obs.stage("seeded.cluster_place") as stage:
        coarse = clustered.design
        cluster_problem = PlacementProblem(coarse.arrays(), coarse.floorplan)
        cluster_result = GlobalPlacer(cluster_problem, config.cluster_placer).run()
    runtimes["cluster_place"] = stage.elapsed

    # --- Seed flat instances at cluster centres (line 17 / 24) ----------
    with obs.stage("seeded.seed") as stage:
        clustered.seed_flat_positions()
    runtimes["seed"] = stage.elapsed
    obs.event(
        "placement.seeded",
        tool=config.tool,
        clusters=len(clustered.members),
        cluster_hpwl=cluster_result.hpwl,
    )

    # --- Incremental flat placement (line 19 / 25) ----------------------
    with obs.stage("seeded.incremental_place") as stage:
        regions: List[RegionConstraint] = []
        if config.tool == "innovus" and vpr_cluster_ids:
            regions = _cluster_regions(
                clustered, config.region_margin_factor, vpr_cluster_ids
            )
        flat = clustered.source
        flat_problem = PlacementProblem(flat.arrays(), flat.floorplan)
        multipliers = clustered.net_weight_multipliers
        if multipliers is not None:
            flat_problem.net_weights = (
                flat_problem.net_weights * multipliers[flat_problem.net_indices]
            )
        placer = GlobalPlacer(
            flat_problem, config.incremental_placer, regions=regions
        )
        incremental_result = placer.run()
    # Line 20: remove region constraints (they only steer the
    # incremental run; later stages see an unconstrained placement).
    runtimes["incremental_place"] = stage.elapsed

    return SeededPlacementResult(
        hpwl=incremental_result.hpwl,
        cluster_result=cluster_result,
        incremental_result=incremental_result,
        runtimes=runtimes,
    )
