"""Region constraints for seeded placement (Innovus mode).

Algorithm 1 (lines 16-20) builds region constraints from the cluster
placement and the V-P&R shapes before running incremental placement in
Innovus.  A region constrains a set of instances to a rectangle; the
placer enforces it by clamping after every iteration and anchoring the
instances to the region interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np


@dataclass
class RegionConstraint:
    """A rectangular placement region over a set of vertices.

    Attributes:
        name: Region name (e.g. ``"cluster_12"``).
        llx, lly, urx, ury: Rectangle bounds (microns).
        vertex_ids: Problem vertex ids constrained to the rectangle.
    """

    name: str
    llx: float
    lly: float
    urx: float
    ury: float
    vertex_ids: List[int] = field(default_factory=list)

    @property
    def center(self) -> tuple:
        """Rectangle centre."""
        return (0.5 * (self.llx + self.urx), 0.5 * (self.lly + self.ury))

    @property
    def width(self) -> float:
        """Rectangle width."""
        return self.urx - self.llx

    @property
    def height(self) -> float:
        """Rectangle height."""
        return self.ury - self.lly

    def contains(self, x: float, y: float) -> bool:
        """Point-in-rectangle test."""
        return self.llx <= x <= self.urx and self.lly <= y <= self.ury

    def clamp(self, x: np.ndarray, y: np.ndarray) -> None:
        """Clamp the region's vertices into the rectangle, in place
        (vertices index the last axis; leading axes are systems)."""
        ids = np.asarray(self.vertex_ids, dtype=np.int64)
        if len(ids) == 0:
            return
        x[..., ids] = np.clip(x[..., ids], self.llx, self.urx)
        y[..., ids] = np.clip(y[..., ids], self.lly, self.ury)


def clamp_regions(
    regions: Sequence[RegionConstraint], x: np.ndarray, y: np.ndarray
) -> None:
    """Apply every region's clamp."""
    for region in regions:
        region.clamp(x, y)
