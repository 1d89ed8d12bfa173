"""Clock tree synthesis (TritonCTS substitute).

Recursive geometric bisection: sinks are split by median x / median y
alternately until leaf groups are small; each internal node sits at the
centroid of its children and hosts a clock buffer.  Reports clock
wirelength, buffer count and a geometric skew estimate — the inputs the
post-route power/timing models need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.netlist import Floorplan, NetlistArrays

#: Sinks per CTS leaf group.
LEAF_GROUP_SIZE = 16

#: Wire delay per micron of clock wire (ns), used for the skew estimate.
CLOCK_DELAY_PER_UM = 2e-5


@dataclass
class ClockTreeResult:
    """Outcome of CTS.

    Attributes:
        wirelength: Total clock tree wire length (microns).
        num_buffers: Inserted clock buffers.
        skew: Estimated global skew (ns): spread of source-to-sink path
            lengths times the per-micron clock wire delay.
        num_sinks: Clock sinks driven.
    """

    wirelength: float
    num_buffers: int
    skew: float
    num_sinks: int


def synthesize_clock_tree(
    arrays: NetlistArrays, floorplan: Floorplan
) -> ClockTreeResult:
    """Build the clock tree over the sequential instances of a flat
    netlist, rooted at its clock port (else the die centre)."""
    xs, ys = arrays.current_positions()
    is_seq = arrays.m_is_seq[arrays.inst_master]
    sinks: List[Tuple[float, float]] = list(
        zip(xs[is_seq].tolist(), ys[is_seq].tolist())
    )
    if not sinks:
        return ClockTreeResult(wirelength=0.0, num_buffers=0, skew=0.0, num_sinks=0)

    clock_port = arrays.current_scalar("clock_port")
    port_names = arrays.port_names
    if clock_port and clock_port in port_names:
        port_x, port_y = arrays.current_port_xy()
        at = port_names.index(clock_port)
        root = (float(port_x[at]), float(port_y[at]))
    else:
        root = (floorplan.die_width / 2, floorplan.die_height / 2)

    state = {"wirelength": 0.0, "buffers": 0}
    path_lengths: List[float] = []

    def recurse(
        points: List[Tuple[float, float]],
        tap: Tuple[float, float],
        depth: int,
        path: float,
    ) -> None:
        if len(points) <= LEAF_GROUP_SIZE:
            for x, y in points:
                dist = abs(x - tap[0]) + abs(y - tap[1])
                state["wirelength"] += dist
                path_lengths.append(path + dist)
            return
        # Split on the wider dimension's median.
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        split_x = (max(xs) - min(xs)) >= (max(ys) - min(ys))
        points = sorted(points, key=lambda p: p[0] if split_x else p[1])
        mid = len(points) // 2
        for half in (points[:mid], points[mid:]):
            cx = sum(p[0] for p in half) / len(half)
            cy = sum(p[1] for p in half) / len(half)
            dist = abs(cx - tap[0]) + abs(cy - tap[1])
            state["wirelength"] += dist
            state["buffers"] += 1
            recurse(half, (cx, cy), depth + 1, path + dist)

    recurse(sinks, root, 0, 0.0)
    skew = (max(path_lengths) - min(path_lengths)) * CLOCK_DELAY_PER_UM
    return ClockTreeResult(
        wirelength=state["wirelength"],
        num_buffers=state["buffers"],
        skew=skew,
        num_sinks=len(sinks),
    )
