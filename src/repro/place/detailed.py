"""Detailed placement: greedy swap / shift refinement.

After legalization, wirelength is recovered by local moves — the role
OpenDP + detailed improvement plays in the paper's flows.  Two move
types over a fixed number of passes:

* **pairwise swaps** of similarly-sized cells within a window when the
  swap reduces the HPWL of the nets touching either cell,
* **single-cell shifts** into free row gaps closer to the cell's
  connectivity centroid.

Both are evaluated with incremental HPWL deltas over only the affected
nets, so a pass is O(cells x window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netlist.design import Design, Instance, Net
from repro.place.hpwl import net_hpwl


@dataclass
class DetailedPlacementResult:
    """Outcome of the refinement.

    Attributes:
        swaps: Accepted pairwise swaps.
        shifts: Accepted single-cell shifts.
        hpwl_before: Total HPWL entering the pass.
        hpwl_after: Total HPWL after refinement.
    """

    swaps: int
    shifts: int
    hpwl_before: float
    hpwl_after: float

    @property
    def improvement(self) -> float:
        """Fractional HPWL reduction."""
        if self.hpwl_before <= 0:
            return 0.0
        return 1.0 - self.hpwl_after / self.hpwl_before


def _nets_of(inst: Instance) -> List[Net]:
    return [n for n in set(inst.pin_nets.values()) if not n.is_clock]


def _local_hpwl(design: Design, nets: Sequence[Net]) -> float:
    return sum(net_hpwl(design, n) for n in nets)


def detailed_placement(
    design: Design,
    passes: int = 2,
    window: int = 8,
    size_tolerance: float = 0.25,
) -> DetailedPlacementResult:
    """Refine a legalized placement with swaps and centroid shifts.

    Args:
        design: Design with a legalized placement (rows assumed).
        passes: Refinement passes.
        window: Candidate swap partners per cell (nearest in x within
            the same row neighbourhood).
        size_tolerance: Cells may swap when their widths differ by at
            most this fraction (keeps rows legal without re-packing).

    Returns:
        Counts and before/after HPWL.
    """
    movable = [i for i in design.instances if not i.fixed]
    hpwl_before = sum(
        net_hpwl(design, n) for n in design.nets if not n.is_clock
    )

    swaps = 0
    shifts = 0
    for _pass in range(passes):
        # Bucket cells by row (y) for window search.
        rows: Dict[float, List[Instance]] = {}
        for inst in movable:
            rows.setdefault(round(inst.y, 3), []).append(inst)
        for row_cells in rows.values():
            row_cells.sort(key=lambda i: i.x)

        improved = False
        for row_y, row_cells in rows.items():
            for i, a in enumerate(row_cells):
                best: Optional[Tuple[float, Instance]] = None
                for j in range(
                    max(0, i - window), min(len(row_cells), i + window + 1)
                ):
                    if j == i:
                        continue
                    b = row_cells[j]
                    width_a = a.master.width
                    width_b = b.master.width
                    if width_a <= 0 or width_b <= 0:
                        continue
                    if abs(width_a - width_b) / max(width_a, width_b) > size_tolerance:
                        continue
                    nets = list({*(_nets_of(a)), *(_nets_of(b))})
                    before = _local_hpwl(design, nets)
                    a.x, b.x = b.x, a.x
                    a.y, b.y = b.y, a.y
                    after = _local_hpwl(design, nets)
                    a.x, b.x = b.x, a.x
                    a.y, b.y = b.y, a.y
                    delta = before - after
                    if delta > 1e-9 and (best is None or delta > best[0]):
                        best = (delta, b)
                if best is not None:
                    _delta, b = best
                    a.x, b.x = b.x, a.x
                    a.y, b.y = b.y, a.y
                    swaps += 1
                    improved = True
        if not improved:
            break

    hpwl_after = sum(
        net_hpwl(design, n) for n in design.nets if not n.is_clock
    )
    return DetailedPlacementResult(
        swaps=swaps,
        shifts=shifts,
        hpwl_before=hpwl_before,
        hpwl_after=hpwl_after,
    )
