"""Greedy gate sizing (the resizer's second job).

Upsizes cells on negative-slack paths to their stronger drive variants
(X1 -> X2 -> X4) when the load-dependent delay reduction exceeds the
intrinsic-delay increase, and downsizes near-zero-load cells to save
power.  A deliberately simple linear-delay sizer: one pass over the
failing endpoints' worst paths, matching the spirit of the
post-placement `repair_timing` step in the paper's flows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from benchmarks.ext.opt.buffering import net_load
from repro.netlist.design import Design, Instance, MasterCell
from repro.sta.analysis import TimingAnalyzer
from repro.sta.delay import WireDelayModel, effective_cell_delay
from repro.sta.graph import TimingGraph
from repro.sta.paths import find_path_ends

_DRIVE_RE = re.compile(r"^(?P<base>.+)_X(?P<drive>\d+)$")


@dataclass
class SizingResult:
    """Outcome of the sizing pass.

    Attributes:
        upsized: Instances moved to a stronger drive.
        downsized: Instances moved to a weaker drive.
        paths_touched: Worst paths examined.
    """

    upsized: int
    downsized: int
    paths_touched: int


def _variant(design: Design, master: MasterCell, factor: int) -> Optional[MasterCell]:
    """The master's drive-strength sibling scaled by ``factor``."""
    match = _DRIVE_RE.match(master.name)
    if not match:
        return None
    drive = int(match.group("drive")) * factor
    name = f"{match.group('base')}_X{drive}"
    return design.masters.get(name)


def _cell_delay(master: MasterCell, load: float) -> float:
    return effective_cell_delay(
        master.intrinsic_delay, master.drive_resistance, load
    )


def _swap_master(design: Design, inst: Instance, master: MasterCell) -> None:
    """Resize in place, keeping the timing graph: patch the flat form's
    master columns (the STA reads them) without a structure bump.  The
    patch bumps the form's ``master_version``, so the next analyzer
    recompiles its delay tables."""
    inst.master = master
    if not design.arrays().patch_instance_master(inst.index):
        raise ValueError(f"{master.name} does not declare {inst.name}'s pin list")


def resize_gates(
    design: Design,
    graph: TimingGraph,
    wire_model: WireDelayModel,
    max_paths: int = 50,
    downsize_load: float = 3.0,
) -> SizingResult:
    """One sizing pass over the worst failing paths.

    Args:
        design: Placed design (mutated in place: masters swapped).
        graph: The timing graph of ``design.arrays()`` (stays valid:
            sizing does not change connectivity).
        wire_model: Geometry source for loads.
        max_paths: Worst paths examined for upsizing.
        downsize_load: Cells driving less than this load (fF) and not
            on examined paths are candidates for downsizing.

    Returns:
        Counts of resized instances.
    """
    analyzer = TimingAnalyzer(graph, wire_model)
    analyzer.update()
    paths = [
        p for p in find_path_ends(analyzer, group_count=max_paths) if p.slack < 0
    ]

    upsized = 0
    on_paths: set = set()
    owners = graph.node_owner.tolist()
    for path in paths:
        for node in path.nodes:
            if owners[node] < 0:
                continue  # a port
            inst = design.instances[owners[node]]
            if inst.master.is_sequential or inst.master.is_macro:
                continue
            on_paths.add(inst.index)
            outputs = inst.master.output_pins()
            if not outputs:
                continue
            net = inst.net_on(outputs[0].name)
            if net is None:
                continue
            load = net_load(design, wire_model, net)
            stronger = _variant(design, inst.master, 2)
            if stronger is None:
                continue
            if _cell_delay(stronger, load) < _cell_delay(inst.master, load):
                _swap_master(design, inst, stronger)
                upsized += 1

    downsized = 0
    for inst in design.instances:
        if inst.index in on_paths:
            continue
        master = inst.master
        if master.is_sequential or master.is_macro:
            continue
        outputs = master.output_pins()
        if not outputs:
            continue
        net = inst.net_on(outputs[0].name)
        if net is None:
            continue
        if net_load(design, wire_model, net) > downsize_load:
            continue
        match = _DRIVE_RE.match(master.name)
        if not match or int(match.group("drive")) <= 1:
            continue
        weaker = design.masters.get(f"{match.group('base')}_X1")
        if weaker is not None:
            _swap_master(design, inst, weaker)
            downsized += 1

    return SizingResult(
        upsized=upsized, downsized=downsized, paths_touched=len(paths)
    )
