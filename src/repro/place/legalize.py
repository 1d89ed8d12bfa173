"""Greedy row legalization (Tetris-style).

Snaps the global placement to standard-cell rows without overlaps:
cells are processed in x order and appended to per-row free segments
(macro footprints are blocked out), choosing the row that minimises
displacement.  Quality is adequate for the relative post-route
comparisons this reproduction makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import obs
from repro.netlist.design import Design


@dataclass
class _Segment:
    """A free interval of one row with a fill cursor."""

    start: float
    end: float
    cursor: float


def _row_segments(design: Design, num_rows: int) -> List[List[_Segment]]:
    """Free segments per row after blocking out fixed instances."""
    fp = design.floorplan
    segments: List[List[_Segment]] = [
        [_Segment(fp.core_llx, fp.core_urx, fp.core_llx)] for _ in range(num_rows)
    ]
    for inst in design.instances:
        if not inst.fixed:
            continue
        half_w = inst.master.width / 2
        half_h = inst.master.height / 2
        lo_row = int((inst.y - half_h - fp.core_lly) / fp.row_height)
        hi_row = int((inst.y + half_h - fp.core_lly) / fp.row_height)
        for row in range(max(0, lo_row), min(num_rows - 1, hi_row) + 1):
            new_segments: List[_Segment] = []
            for seg in segments[row]:
                block_lo = inst.x - half_w
                block_hi = inst.x + half_w
                if block_hi <= seg.start or block_lo >= seg.end:
                    new_segments.append(seg)
                    continue
                if block_lo > seg.start:
                    new_segments.append(_Segment(seg.start, block_lo, seg.start))
                if block_hi < seg.end:
                    new_segments.append(_Segment(block_hi, seg.end, block_hi))
            segments[row] = new_segments
    return segments


def legalize(design: Design, row_search_window: int = 12) -> float:
    """Legalize movable instances onto rows; returns total displacement.

    Args:
        design: Design with a committed global placement.
        row_search_window: Rows examined above/below the target row
            (widened automatically when nothing fits).

    Returns:
        Sum of Manhattan displacements (microns).
    """
    fp = design.floorplan
    num_rows = max(1, int(fp.core_height / fp.row_height))
    with obs.stage("place.legalize", instances=design.num_instances):
        total_disp, unplaced = _legalize_rows(
            design, fp, num_rows, row_search_window
        )
    obs.observe("legalize.displacement", total_disp)
    if unplaced:
        obs.event(
            "legalize.unplaced", count=unplaced, design=design.name
        )
    return total_disp


def _legalize_rows(design, fp, num_rows, row_search_window):
    segments = _row_segments(design, num_rows)

    movable = [inst for inst in design.instances if not inst.fixed]
    movable.sort(key=lambda inst: inst.x)

    total_disp = 0.0
    unplaced = 0
    for inst in movable:
        width = inst.master.width
        target_row = int((inst.y - fp.core_lly) / fp.row_height)
        target_row = int(np.clip(target_row, 0, num_rows - 1))

        best = None  # (cost, row, segment, position)
        window = row_search_window
        while best is None and window <= 4 * num_rows:
            lo = max(0, target_row - window)
            hi = min(num_rows - 1, target_row + window)
            for row in range(lo, hi + 1):
                row_y = fp.core_lly + (row + 0.5) * fp.row_height
                dy = abs(row_y - inst.y)
                if best is not None and dy >= best[0]:
                    continue
                for seg in segments[row]:
                    position = max(seg.cursor, min(inst.x - width / 2, seg.end - width))
                    if position < seg.cursor or position + width > seg.end:
                        continue
                    cost = abs(position + width / 2 - inst.x) + dy
                    if best is None or cost < best[0]:
                        best = (cost, row, seg, position)
            window *= 2
        if best is None:
            # Core is over-full around this cell; leave it in place.
            unplaced += 1
            continue
        cost, row, seg, position = best
        row_y = fp.core_lly + (row + 0.5) * fp.row_height
        total_disp += abs(position + width / 2 - inst.x) + abs(row_y - inst.y)
        inst.x = position + width / 2
        inst.y = row_y
        seg.cursor = position + width
    return total_disp, unplaced
