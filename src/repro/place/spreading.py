"""Bin-based density spreading (FastPlace-style cell shifting).

After each quadratic solve the placement is strongly clumped; the
spreader computes per-bin utilization and produces per-cell *target*
positions that equalise density along each axis.  The placer turns the
targets into pseudo-net anchors whose weight grows over iterations,
which is the classic quadratic-placement spreading loop.

Like the B2B kernels, everything here takes a leading *system* axis:
coordinates of shape ``(K, n)`` are K placements of one netlist, each
on its own core box (``DensityGrid.floorplan`` is then a
:class:`~repro.place.problem.CoreBoxes`, whose ``(K, 1)`` columns
broadcast where a :class:`Floorplan`'s scalars would).  Row ``k`` of
every result is what the ``(n,)`` call on system ``k`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.netlist.design import Floorplan
from repro.place.b2b import stable_argsort_ints
from repro.place.problem import CoreBoxes


@dataclass
class DensityGrid:
    """Regular bin grid over the core area (or K stacked core areas)."""

    floorplan: Union[Floorplan, CoreBoxes]
    bins_x: int
    bins_y: int

    @classmethod
    def for_problem(
        cls, floorplan: Union[Floorplan, CoreBoxes], num_movable: int
    ) -> "DensityGrid":
        """Grid sized so an average bin holds ~16 cells, within [8, 64]."""
        bins = int(np.sqrt(max(1, num_movable) / 16.0))
        bins = int(np.clip(bins, 8, 64))
        return cls(floorplan=floorplan, bins_x=bins, bins_y=bins)

    def bin_of(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Bin indices of coordinates (clipped to the grid; NaN in bin 0)."""
        fp = self.floorplan
        return (
            _bin_index((x - fp.core_llx) / fp.core_width * self.bins_x, self.bins_x),
            _bin_index((y - fp.core_lly) / fp.core_height * self.bins_y, self.bins_y),
        )

    def _bin_area(self):
        fp = self.floorplan
        return (fp.core_width / self.bins_x) * (fp.core_height / self.bins_y)

    def utilization(
        self,
        x: np.ndarray,
        y: np.ndarray,
        areas: np.ndarray,
        movable: np.ndarray,
    ) -> np.ndarray:
        """Per-bin movable-area utilization, ``(bins_y, bins_x)`` — with
        a leading system axis when ``x``/``y`` have one."""
        bx, by = self.bin_of(x[..., movable], y[..., movable])
        bins = self.bins_y * self.bins_x
        systems = int(np.prod(bx.shape[:-1]))
        flat_bin = (by * self.bins_x + bx).reshape(systems, -1)
        flat_bin += (np.arange(systems) * bins)[:, None]
        # bincount adds each bin's cells one by one in cell order, as
        # np.add.at does, and a bin belongs to one system.
        usage = np.bincount(
            flat_bin.reshape(-1),
            weights=np.broadcast_to(areas[movable], flat_bin.shape).reshape(-1),
            minlength=systems * bins,
        )
        util = usage.reshape(systems, bins) / self._bin_area()
        return util.reshape(bx.shape[:-1] + (self.bins_y, self.bins_x))

    def overflow(
        self,
        x: np.ndarray,
        y: np.ndarray,
        areas: np.ndarray,
        movable: np.ndarray,
        target_density: float,
    ):
        """Total overflowing area fraction (0 = fully spread): a float,
        or one per system for stacked coordinates."""
        total_area = float(areas[movable].sum())
        if total_area <= 0:
            return 0.0 if x.ndim == 1 else np.zeros(len(x))
        util = self.utilization(x, y, areas, movable)
        util = util.reshape(util.shape[:-2] + (-1,))
        over = np.maximum(util - target_density, 0.0) * self._bin_area()
        fraction = over.sum(axis=-1) / total_area
        return float(fraction) if x.ndim == 1 else fraction


def spreading_targets(
    grid: DensityGrid,
    x: np.ndarray,
    y: np.ndarray,
    areas: np.ndarray,
    movable: np.ndarray,
    strength: float = 0.8,
    by_coord: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute spread target positions via per-band 1-D equalization.

    Within each horizontal band of bins, cells are re-mapped along x so
    cumulative cell area tracks cumulative capacity (and symmetrically
    along y within vertical bands).  ``strength`` in (0, 1] damps the
    move toward the fully-equalized position.  ``by_coord`` may give
    each row's stable argsort of its movable x, then (below) y values.

    Returns:
        (target_x, target_y) arrays over all vertices (fixed vertices
        keep their coordinates), shaped like ``x`` / ``y``.
    """
    fp = grid.floorplan
    target_x = x.copy()
    target_y = y.copy()
    ids = np.nonzero(movable)[0]
    if len(ids) == 0:
        return target_x, target_y
    if by_coord is None:
        rows = np.concatenate([np.atleast_2d(x), np.atleast_2d(y)])[:, ids]
        by_coord = np.argsort(rows, axis=1, kind="stable")
    by_x, by_y = np.split(by_coord, 2)

    _equalize_axis(
        by_x, ids, x, y, areas, target_x,
        lo=fp.core_llx, span=fp.core_width,
        band_lo=fp.core_lly, band_span=fp.core_height,
        bands=grid.bins_y, strength=strength,
    )
    _equalize_axis(
        by_y, ids, y, x, areas, target_y,
        lo=fp.core_lly, span=fp.core_height,
        band_lo=fp.core_llx, band_span=fp.core_width,
        bands=grid.bins_x, strength=strength,
    )
    return target_x, target_y


def spread_displacement(
    target_x: np.ndarray,
    target_y: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    movable: np.ndarray,
):
    """Mean Manhattan distance the spreader asks movable cells to move
    (a float, or one per system for stacked coordinates).

    A convergence signal for the telemetry ``*.spread_move`` streams:
    it decays toward zero as density equalises, and a plateau at a high
    value flags a placement that is fighting its density target.
    """
    ids = np.nonzero(movable)[0]
    if len(ids) == 0:
        return 0.0 if x.ndim == 1 else np.zeros(len(x))
    dx = np.abs(target_x[..., ids] - x[..., ids])
    dy = np.abs(target_y[..., ids] - y[..., ids])
    moved = (dx + dy).mean(axis=-1)
    return float(moved) if x.ndim == 1 else moved


def _bin_index(scaled: np.ndarray, bins: int) -> np.ndarray:
    """``floor(scaled)`` clipped to ``[0, bins)``, clamped while still
    float (in place) so that NaN lands in bin 0 and ±inf in an end bin:
    casting a non-finite float to an integer is undefined."""
    np.fmax(scaled, 0.0, out=scaled)
    np.fmin(scaled, bins - 1, out=scaled)
    return scaled.astype(np.int64)


def _equalize_axis(
    by_coord: np.ndarray,
    ids: np.ndarray,
    primary: np.ndarray,
    secondary: np.ndarray,
    areas: np.ndarray,
    out: np.ndarray,
    lo,
    span,
    band_lo,
    band_span,
    bands: int,
    strength: float,
) -> None:
    """Equalize cumulative area along ``primary`` within secondary bands.

    ``lo``/``span``/``band_lo``/``band_span`` are floats, or ``(K, 1)``
    columns for ``(K, n)`` coordinates; ``by_coord`` is each row's
    stable argsort of ``primary[..., ids]``.  Each system's cells are
    sorted by (band, primary) and cumulated on their own row — never one
    cumsum across systems — and every band segment is then equalized
    with row gathers instead of a per-band Python loop.
    """
    rows = np.atleast_2d(primary[..., ids])
    band = np.atleast_2d(
        _bin_index((secondary[..., ids] - band_lo) / band_span * bands, bands)
    )
    # np.lexsort((coord, band)) per row, as two stable passes.
    order = np.take_along_axis(
        by_coord,
        stable_argsort_ints(np.take_along_axis(band, by_coord, axis=1), bands),
        axis=1,
    )
    sorted_band = np.take_along_axis(band, order, axis=1)
    sorted_area = areas[ids][order]
    sorted_coord = np.take_along_axis(rows, order, axis=1)
    cum = np.cumsum(sorted_area, axis=1)

    # Band boundaries in the sorted order, as the segment start / end
    # position of every cell.
    count = rows.shape[1]
    position = np.arange(count)
    is_start = np.ones(rows.shape, dtype=bool)
    is_start[:, 1:] = sorted_band[:, 1:] != sorted_band[:, :-1]
    start = np.maximum.accumulate(np.where(is_start, position, 0), axis=1)
    is_end = np.ones(rows.shape, dtype=bool)
    is_end[:, :-1] = is_start[:, 1:]
    end = np.minimum.accumulate(
        np.where(is_end, position, count - 1)[:, ::-1], axis=1
    )[:, ::-1]

    base = np.where(
        start > 0, np.take_along_axis(cum, np.maximum(start - 1, 0), axis=1), 0.0
    )
    total = np.take_along_axis(cum, end, axis=1) - base
    live = total > 0
    centred = (cum - base) - sorted_area * 0.5
    equalized = lo + centred / np.where(live, total, 1.0) * span
    moved = sorted_coord + strength * (equalized - sorted_coord)
    result = np.where(live, moved, sorted_coord)
    np.put_along_axis(np.atleast_2d(out), ids[order], result, axis=1)
