"""The pre-batch router and Prim, kept as the tests' oracle.

This is the per-net / per-pin / per-tree-edge Python the batch-native
``repro.route`` replaced (PR 17), moved here verbatim minus the RSMT
memo and the telemetry: one net at a time through
:func:`net_points_reference` (object walk) or the CSR gather, a scalar
or matrix Prim per net, and one ``_route_edge`` with NumPy slice
``max`` / ``+=`` round-trips per tree edge.  ``ReferenceRouter`` and
:func:`rsmt_reference` must agree with ``GlobalRouter`` and ``rsmt``
bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.netlist.design import Design, Net
from repro.route.gcell import GCellGrid
from repro.route.global_route import DETOUR_FACTOR, RoutingResult
from repro.route.steiner import MAX_MST_PINS, STEINER_DISCOUNT, SteinerTree

_PRIM_SMALL_K = 32
_INF = float("inf")


# ----------------------------------------------------------------------
# GCellGrid demand primitives
# ----------------------------------------------------------------------
def add_horizontal(grid: GCellGrid, row: int, col_a: int, col_b: int) -> None:
    """Add one track of horizontal demand across [col_a, col_b]."""
    if col_a > col_b:
        col_a, col_b = col_b, col_a
    grid.h_usage[row, col_a : col_b + 1] += 1.0


def add_vertical(grid: GCellGrid, col: int, row_a: int, row_b: int) -> None:
    """Add one track of vertical demand across [row_a, row_b]."""
    if row_a > row_b:
        row_a, row_b = row_b, row_a
    grid.v_usage[row_a : row_b + 1, col] += 1.0


def segment_congestion(
    grid: GCellGrid, horizontal: bool, fixed: int, a: int, b: int
) -> float:
    """Max congestion ratio along a candidate segment."""
    if a > b:
        a, b = b, a
    if horizontal:
        usage = grid.h_usage[fixed, a : b + 1]
        return float(usage.max(initial=0.0) / grid.h_capacity)
    usage = grid.v_usage[a : b + 1, fixed]
    return float(usage.max(initial=0.0) / grid.v_capacity)


# ----------------------------------------------------------------------
# Steiner trees
# ----------------------------------------------------------------------
def _manhattan(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def rsmt_reference(points) -> SteinerTree:
    pts = list(points)
    k = len(pts)
    if k <= 1:
        return SteinerTree(points=pts, edges=[], length=0.0)
    if k == 2:
        return SteinerTree(pts, [(0, 1)], _manhattan(pts[0], pts[1]))
    if k == 3:
        xs = sorted(p[0] for p in pts)
        ys = sorted(p[1] for p in pts)
        return SteinerTree(pts, [(0, 1), (0, 2)], (xs[2] - xs[0]) + (ys[2] - ys[0]))
    if k > MAX_MST_PINS:
        edges = [(0, i) for i in range(1, k)]
        length = sum(_manhattan(pts[0], pts[i]) for i in range(1, k))
        return SteinerTree(points=pts, edges=edges, length=length)
    min_x = min(p[0] for p in pts)
    min_y = min(p[1] for p in pts)
    rel = [(p[0] - min_x, p[1] - min_y) for p in pts]
    tree = prim_mst_small(rel) if k < _PRIM_SMALL_K else prim_mst_matrix(rel)
    return SteinerTree(points=pts, edges=tree.edges, length=tree.length)


def prim_mst_small(pts: List[Tuple[float, float]]) -> SteinerTree:
    """Scalar Prim (was the < 32-pin path)."""
    k = len(pts)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0 = xs[0]
    y0 = ys[0]
    best_dist = [abs(xs[i] - x0) + abs(ys[i] - y0) for i in range(k)]
    best_dist[0] = _INF
    best_from = [0] * k
    edges: List[Tuple[int, int]] = []
    total = 0.0
    for _ in range(k - 1):
        j = min(range(k), key=best_dist.__getitem__)
        total += best_dist[j]
        edges.append((best_from[j], j))
        best_dist[j] = _INF
        xj = xs[j]
        yj = ys[j]
        for i in range(k):
            if best_dist[i] != _INF:
                d = abs(xs[i] - xj) + abs(ys[i] - yj)
                if d < best_dist[i]:
                    best_dist[i] = d
                    best_from[i] = j
    return SteinerTree(points=pts, edges=edges, length=total * STEINER_DISCOUNT)


def prim_mst_matrix(pts: List[Tuple[float, float]]) -> SteinerTree:
    """Distance-matrix Prim (was the >= 32-pin path)."""
    k = len(pts)
    arr = np.asarray(pts, dtype=float)
    xs = arr[:, 0]
    ys = arr[:, 1]
    dist = np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])
    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    best_dist = dist[0].copy()
    best_dist[0] = np.inf
    best_from = np.zeros(k, dtype=np.int64)
    edges: List[Tuple[int, int]] = []
    total = 0.0
    for _ in range(k - 1):
        j = int(np.argmin(best_dist))
        total += float(best_dist[j])
        edges.append((int(best_from[j]), j))
        in_tree[j] = True
        best_dist[j] = np.inf
        row = dist[j]
        closer = (row < best_dist) & ~in_tree
        best_dist[closer] = row[closer]
        best_from[closer] = j
    return SteinerTree(points=pts, edges=edges, length=total * STEINER_DISCOUNT)


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
def net_points_reference(design: Design, net: Net) -> List[Tuple[float, float]]:
    """Distinct pin locations of a net, driver first (object walk)."""
    points: List[Tuple[float, float]] = []
    seen = set()
    for ref in net.pins():
        if ref.instance is not None:
            point = (ref.instance.x, ref.instance.y)
        else:
            port = design.ports[ref.pin_name]
            point = (port.x, port.y)
        key = (round(point[0], 3), round(point[1], 3))
        if key not in seen:
            seen.add(key)
            points.append(point)
    return points


class ReferenceRouter:
    """Routes the design's current coordinates, one net at a time."""

    def __init__(self, design: Design, grid: GCellGrid, include_clock: bool = False):
        self.design = design
        self.grid = grid
        self.include_clock = include_clock

    def _route_edge(self, ax: int, ay: int, bx: int, by: int) -> float:
        grid = self.grid
        if ax == bx and ay == by:
            return 0.0
        if ax == bx:
            congestion = segment_congestion(grid, False, ax, ay, by)
            add_vertical(grid, ax, ay, by)
            return congestion
        if ay == by:
            congestion = segment_congestion(grid, True, ay, ax, bx)
            add_horizontal(grid, ay, ax, bx)
            return congestion
        cong_l1 = max(
            segment_congestion(grid, True, ay, ax, bx),
            segment_congestion(grid, False, bx, ay, by),
        )
        cong_l2 = max(
            segment_congestion(grid, False, ax, ay, by),
            segment_congestion(grid, True, by, ax, bx),
        )
        if cong_l1 <= cong_l2:
            add_horizontal(grid, ay, ax, bx)
            add_vertical(grid, bx, ay, by)
            return cong_l1
        add_vertical(grid, ax, ay, by)
        add_horizontal(grid, by, ax, bx)
        return cong_l2

    def run(self) -> RoutingResult:
        arrays = self.design.arrays()
        pin_vertex, net_offsets, net_indices = arrays.pin_vertex_csr(
            self.include_clock
        )
        vx, vy = arrays.vertex_positions()
        all_px = vx[pin_vertex].tolist()
        all_py = vy[pin_vertex].tolist()
        offsets = net_offsets.tolist()
        nets = []
        degenerate: List[int] = []
        for i, net in enumerate(self.design.nets[n] for n in net_indices.tolist()):
            points: List[Tuple[float, float]] = []
            seen = set()
            for pin in range(offsets[i], offsets[i + 1]):
                x_coord = all_px[pin]
                y_coord = all_py[pin]
                key = (round(x_coord, 3), round(y_coord, 3))
                if key not in seen:
                    seen.add(key)
                    points.append((x_coord, y_coord))
            if len(points) < 2:
                degenerate.append(net.index)
                continue
            nets.append((net, rsmt_reference(points)))
        nets.sort(key=lambda item: -item[1].length)

        grid = self.grid
        all_points = [p for _, tree in nets for p in tree.points]
        if all_points:
            coords = np.asarray(all_points)
            cell_x = np.clip(
                coords[:, 0] / grid.cell_width, 0, grid.nx - 1
            ).astype(np.int64)
            cell_y = np.clip(
                coords[:, 1] / grid.cell_height, 0, grid.ny - 1
            ).astype(np.int64)
        else:
            cell_x = cell_y = np.zeros(0, dtype=np.int64)

        net_lengths: Dict[int, float] = {idx: 0.0 for idx in degenerate}
        total = 0.0
        base = 0
        for net, tree in nets:
            worst = 0.0
            for i, j in tree.edges:
                congestion = self._route_edge(
                    int(cell_x[base + i]),
                    int(cell_y[base + i]),
                    int(cell_x[base + j]),
                    int(cell_y[base + j]),
                )
                worst = max(worst, congestion)
            base += len(tree.points)
            detour = 1.0 + DETOUR_FACTOR * max(0.0, worst - 1.0)
            length = tree.length * detour
            net_lengths[net.index] = length
            total += length

        ratios = self.grid.congestion_ratios()
        return RoutingResult(
            routed_wirelength=total,
            net_lengths=net_lengths,
            grid=self.grid,
            overflow_fraction=float((ratios > 1.0).mean()),
            max_congestion=float(ratios.max(initial=0.0)),
        )
