"""GCell grid with directional edge capacities.

The grid mirrors how FastRoute sees the die: horizontal routing demand
is accumulated on (row, column) cell crossings of horizontal wires,
vertical demand likewise, each against a per-cell capacity in tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.netlist.design import Floorplan

#: Routing tracks per micron per direction (NanGate45 has ten metal
#: layers, ~5 per direction at 0.28-0.56 um pitch, derated ~40% for
#: power/blockage/vias).
TRACKS_PER_UM = 8.0


@dataclass
class GCellGrid:
    """A regular GCell grid over the die.

    Attributes:
        floorplan: The die being routed.
        nx, ny: Grid dimensions.
        h_usage, v_usage: Per-cell horizontal / vertical track demand.
        h_capacity, v_capacity: Per-cell track capacity.
    """

    floorplan: Floorplan
    nx: int
    ny: int
    h_usage: np.ndarray
    v_usage: np.ndarray
    h_capacity: float
    v_capacity: float

    @classmethod
    def for_floorplan(
        cls,
        floorplan: Floorplan,
        target_cells: int = 2048,
        tracks_per_um: float = TRACKS_PER_UM,
    ) -> "GCellGrid":
        """Size the grid to ~``target_cells`` square GCells."""
        if not (floorplan.die_width > 0 and floorplan.die_height > 0):
            raise ValueError(
                f"no routing capacity: a GCell grid needs a die of positive width "
                f"and height, got {floorplan.die_width} x {floorplan.die_height} um"
            )
        aspect = floorplan.die_width / max(floorplan.die_height, 1e-9)
        ny = max(8, int(np.sqrt(target_cells / max(aspect, 1e-9))))
        nx = max(8, int(ny * aspect))
        cell_w = floorplan.die_width / nx
        cell_h = floorplan.die_height / ny
        return cls(
            floorplan=floorplan,
            nx=nx,
            ny=ny,
            h_usage=np.zeros((ny, nx)),
            v_usage=np.zeros((ny, nx)),
            h_capacity=cell_h * tracks_per_um,
            v_capacity=cell_w * tracks_per_um,
        )

    # ------------------------------------------------------------------
    @property
    def cell_width(self) -> float:
        """GCell width (microns)."""
        return self.floorplan.die_width / self.nx

    @property
    def cell_height(self) -> float:
        """GCell height (microns)."""
        return self.floorplan.die_height / self.ny

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """(col, row) containing a point, clipped to the grid."""
        cx = int(np.clip(x / self.cell_width, 0, self.nx - 1))
        cy = int(np.clip(y / self.cell_height, 0, self.ny - 1))
        return cx, cy

    # ------------------------------------------------------------------
    def congestion_ratios(self) -> np.ndarray:
        """Flattened per-cell max(h, v) congestion ratios."""
        h = self.h_usage / self.h_capacity
        v = self.v_usage / self.v_capacity
        return np.maximum(h, v).ravel()

    def top_percent_congestion(self, percent: float = 10.0) -> float:
        """Mean congestion of the most-congested ``percent``% of GCells.

        This is the paper's Congestion Cost (Eq. 5) with X = percent.
        """
        ratios = self.congestion_ratios()
        count = max(1, int(len(ratios) * percent / 100.0))
        if count >= len(ratios):
            top = np.sort(ratios)[::-1]
        else:
            # O(n) selection of the top-k block; the block is then
            # sorted descending so the mean's pairwise-summation order
            # (and hence the exact float result) matches the full-sort
            # implementation this replaced.
            top = np.sort(np.partition(ratios, len(ratios) - count)[-count:])[::-1]
        return float(top.mean())

    def overflow_fraction(self) -> float:
        """Fraction of GCells whose demand exceeds capacity."""
        ratios = self.congestion_ratios()
        return float((ratios > 1.0).mean())
