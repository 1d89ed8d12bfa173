"""Congestion-aware pattern global routing, batch-native.

Each net's Steiner tree edges are routed as L-shapes; of the two L
orientations the router keeps the one crossing less-congested GCells
(sequential net ordering, long nets first, which approximates one
rip-up-and-reroute pass).  Outputs per-net routed lengths — inflated by
a congestion detour factor — plus the grid statistics the V-P&R
Congestion Cost uses.

One router routes K placements of the same netlist at once (the V-P&R
sweep's shape candidates); an ordinary design is its K = 1 case.
Everything without a sequential dependency is array code over all
(system, net) segments.  The L choice depends on the demand of every
net routed before, so it stays one scalar loop per grid
(:func:`_route_patterns`) over plain ``int`` edges and ``list`` usage
rows: at ~10 cells per segment a NumPy lockstep of that loop across
systems is dispatch-bound and slower than the loop itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.netlist.arrays import NetlistArrays
from repro.netlist.design import Floorplan
from repro.route.gcell import GCellGrid
from repro.route.steiner import rsmt

#: Wirelength penalty per unit of average overflow along a net's route.
DETOUR_FACTOR = 0.3


@dataclass
class RoutingResult:
    """Outcome of global routing.

    Attributes:
        routed_wirelength: Total routed wire length (microns).
        net_lengths: Net index -> routed length (microns).
        grid: The GCell grid with final usage.
        overflow_fraction: Fraction of over-capacity GCells.
        max_congestion: Peak GCell congestion ratio.
        error: Set when a non-finite input kept this system from being
            routed: wirelength NaN, grid untouched.
    """

    routed_wirelength: float
    net_lengths: Dict[int, float] = field(default_factory=dict)
    grid: Optional[GCellGrid] = None
    overflow_fraction: float = 0.0
    max_congestion: float = 0.0
    error: Optional[str] = None

    def top_percent_congestion(self, percent: float = 10.0) -> float:
        """Congestion Cost numerator (Eq. 5)."""
        if self.grid is None:
            return 0.0
        return self.grid.top_percent_congestion(percent)


class GlobalRouter:
    """Routes a placed flat netlist over a GCell grid — or K placements
    of it, each over its own grid, as one stack."""

    def __init__(
        self,
        netlist: NetlistArrays,
        grid: Union[Floorplan, GCellGrid, Sequence[GCellGrid]],
        include_clock: bool = False,
        telemetry_prefix: Optional[str] = "route",
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> None:
        """``grid`` is a GCell grid, or a floorplan to lay the default
        one over.  ``x`` / ``y`` stack K placements: ``(K, n_vertices)``
        arrays in :class:`~repro.place.problem.PlacementProblem` vertex
        order, with ``grid`` a sequence of K grids; :meth:`run` then
        returns K results.  Without them the live coordinates are routed."""
        self.netlist = netlist
        self.stack = None if x is None else (x, y)
        if isinstance(grid, Floorplan):
            grid = GCellGrid.for_floorplan(grid)
        self.grids: List[GCellGrid] = [grid] if x is None else list(grid)
        self.include_clock = include_clock
        #: Stream prefix of the QoR observations this run emits
        #: (``<prefix>.overflow``, ``<prefix>.max_congestion``); None
        #: mutes them — the V-P&R engine mutes its virtual-die routes
        #: so the flow-level congestion streams stay clean.
        self.telemetry_prefix = telemetry_prefix

    # ------------------------------------------------------------------
    def run(self) -> Union[RoutingResult, List[RoutingResult]]:
        """Route all signal nets; one :class:`RoutingResult`, or one
        per system of a stack.  A net's routing points are its distinct
        pin locations at 1 nm resolution, in pin order (driver first),
        read through the netlist's ``pin_vertex_csr``."""
        with obs.stage(
            "route.global",
            design=self.netlist.name,
            gcells=sum(grid.nx * grid.ny for grid in self.grids),
            systems=len(self.grids),
        ):
            results = self._run()
        prefix = self.telemetry_prefix
        if prefix is not None:
            for result in results:
                obs.observe(f"{prefix}.overflow", result.overflow_fraction)
                obs.observe(f"{prefix}.max_congestion", result.max_congestion)
                obs.observe(f"{prefix}.wirelength", result.routed_wirelength)
        return results[0] if self.stack is None else results

    def _run(self) -> List[RoutingResult]:
        arrays = self.netlist
        pin_vertex, net_offsets, net_index = arrays.pin_vertex_csr(self.include_clock)
        grids, systems, num_nets = self.grids, len(self.grids), len(net_index)
        vx, vy = self.stack or (v[None, :] for v in arrays.vertex_positions())
        pin_x = vx[:, pin_vertex]
        pin_y = vy[:, pin_vertex]
        # Numeric guard: a system with a non-finite input fails alone.
        # NaN has no GCell, so its pins ride through the array code at
        # the origin (every net degenerate) and it is reported below.
        finite = np.isfinite(pin_x).all(axis=1) & np.isfinite(pin_y).all(axis=1)
        pin_x[~finite] = pin_y[~finite] = 0.0

        # Segment = (system, net).  Flat pin order is already (segment,
        # pin order), which the stable lexsort keeps inside each group
        # of equal (segment, 1 nm key): a group's first element is the
        # first occurrence.
        net_of_pin = np.repeat(np.arange(num_nets), np.diff(net_offsets))
        segment = (np.arange(systems)[:, None] * num_nets + net_of_pin).ravel()
        keys = (segment, _round_nm(pin_x.ravel()), _round_nm(pin_y.ravel()))
        order = np.lexsort(keys[::-1])
        in_order = [key[order] for key in keys]
        repeat = np.logical_and.reduce([key[1:] == key[:-1] for key in in_order])
        keep = np.ones(len(order), dtype=bool)
        keep[order[1:][repeat]] = False
        points_x = pin_x.ravel()[keep]
        points_y = pin_y.ravel()[keep]
        point_system = segment[keep] // max(num_nets, 1)
        sizes = np.bincount(segment[keep], minlength=systems * num_nets)
        forest = rsmt(points_x, points_y, np.concatenate(([0], np.cumsum(sizes))))

        # Longest nets first: they have the least routing flexibility.
        # A net whose pins collapse onto one routing point is
        # degenerate — zero length, no edges — and sorts last.
        tree_length = forest.length.reshape(systems, num_nets)
        routed_order = np.argsort(-tree_length, axis=1, kind="stable")
        num_degenerate = (sizes < 2).reshape(systems, num_nets).sum(axis=1)

        # Point -> GCell as GCellGrid.cell_of, each system's own cells.
        cells = np.array(
            [(g.cell_width, g.cell_height, g.nx - 1, g.ny - 1) for g in grids]
        ).reshape(-1, 4)[point_system]
        cell_x = np.clip(points_x / cells[:, 0], 0, cells[:, 2]).astype(np.int64)
        cell_y = np.clip(points_y / cells[:, 1], 0, cells[:, 3]).astype(np.int64)
        ax, ay = cell_x[forest.edge_a], cell_y[forest.edge_a]
        bx, by = cell_x[forest.edge_b], cell_y[forest.edge_b]
        # Drop edges that stay inside one GCell (no demand, congestion
        # 0.0) and lay the rest out in routing order: system, then the
        # net's rank, then tree order (the sort is stable).
        crossing = np.flatnonzero((ax != bx) | (ay != by))
        rank = np.argsort(routed_order, axis=1)
        slot = (np.arange(systems)[:, None] * num_nets + rank).ravel()
        edge_slot = np.repeat(slot, np.diff(forest.edge_offsets))[crossing]
        crossing = crossing[np.argsort(edge_slot, kind="stable")]
        ax, ay, bx, by = ax[crossing], ay[crossing], bx[crossing], by[crossing]
        x_span = [np.minimum(ax, bx), np.maximum(ax, bx) + 1]
        y_span = [np.minimum(ay, by), np.maximum(ay, by) + 1]
        edges = np.stack([ax, ay, bx, by] + x_span + y_span, axis=1).tolist()
        edges_per_net = np.bincount(edge_slot, minlength=systems * num_nets).reshape(
            systems, num_nets
        )

        results = []
        done = 0
        for k, grid in enumerate(grids):
            edge_counts = edges_per_net[k].tolist()
            begin, done = done, done + sum(edge_counts)
            lengths = tree_length[k, routed_order[k]]
            if not (
                finite[k]
                and np.isfinite(lengths).all()
                and np.isfinite(grid.congestion_ratios()).all()
            ):
                error = "non-finite pin coordinate, tree length or congestion ratio"
                obs.count("route.cost_nonfinite")
                obs.event("route.cost_nonfinite", system=k, reason=error)
                results.append(RoutingResult(float("nan"), error=error))
                continue
            worst = _route_patterns(grid, edge_counts, iter(edges[begin:done]))
            overflow = np.maximum(0.0, np.asarray(worst) - 1.0)
            lengths = lengths * (1.0 + DETOUR_FACTOR * overflow)
            shift = num_degenerate[k]  # degenerate nets lead the record
            names = np.roll(net_index[routed_order[k]], shift).tolist()
            total = np.cumsum(lengths)  # net by net in routed order, not pairwise
            ratios = grid.congestion_ratios()
            results.append(
                RoutingResult(
                    routed_wirelength=float(total[-1]) if num_nets else 0.0,
                    net_lengths=dict(zip(names, np.roll(lengths, shift).tolist())),
                    grid=grid,
                    overflow_fraction=float((ratios > 1.0).mean()),
                    max_congestion=float(ratios.max(initial=0.0)),
                )
            )
        return results


def _round_nm(values: np.ndarray) -> np.ndarray:
    """Python's ``round(v, 3)`` of every element.  ``rint(v * 1000) /
    1000`` is the same float unless ``v * 1000`` lands within an ulp of
    a half, where the product's own rounding can tip ``rint`` the wrong
    way (``round(0.0005, 3)`` is 0.001, ``rint(0.5)`` is 0): those rare
    elements go through ``round`` itself."""
    scaled = values * 1000.0
    keys = np.rint(scaled) / 1000.0
    near_half = np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6)
    if len(near_half):
        keys[near_half] = [round(v, 3) for v in values[near_half].tolist()]
    return keys


def _route_patterns(grid: GCellGrid, edge_counts: List[int], edges) -> List[float]:
    """The sequential stage: route every tree edge, net by net, as a
    straight segment or the less-congested of its two L's, adding one
    track of demand along the chosen cells.

    ``edges`` yields ``(ax, ay, bx, by, x_lo, x_end, y_lo, y_end)`` GCell
    indices, ``edge_counts[n]`` of them for the n-th net.  Works on list
    copies of the grid's usage (which may already carry demand), written
    back once.  Returns each net's worst congestion ratio along its
    chosen patterns, measured before its own demand is added.
    """
    h_capacity, v_capacity = grid.h_capacity, grid.v_capacity
    h_rows = grid.h_usage.tolist()
    v_cols = grid.v_usage.T.tolist()
    worst_of_net = []
    for count in edge_counts:
        worst = 0.0
        for ax, ay, bx, by, x_lo, x_end, y_lo, y_end in islice(edges, count):
            if ax == bx:
                col = v_cols[ax]
                span = col[y_lo:y_end]
                congestion = max(span) / v_capacity
                col[y_lo:y_end] = [u + 1.0 for u in span]
            elif ay == by:
                row = h_rows[ay]
                span = row[x_lo:x_end]
                congestion = max(span) / h_capacity
                row[x_lo:x_end] = [u + 1.0 for u in span]
            else:
                # Two L patterns: horizontal-first at ay (then down
                # bx), or vertical-first at ax (then along by).
                row_a, col_b = h_rows[ay], v_cols[bx]
                col_a, row_b = v_cols[ax], h_rows[by]
                h_a, v_b = row_a[x_lo:x_end], col_b[y_lo:y_end]
                v_a, h_b = col_a[y_lo:y_end], row_b[x_lo:x_end]
                cong_l1 = max(max(h_a) / h_capacity, max(v_b) / v_capacity)
                cong_l2 = max(max(v_a) / v_capacity, max(h_b) / h_capacity)
                if cong_l1 <= cong_l2:
                    row_a[x_lo:x_end] = [u + 1.0 for u in h_a]
                    col_b[y_lo:y_end] = [u + 1.0 for u in v_b]
                    congestion = cong_l1
                else:
                    col_a[y_lo:y_end] = [u + 1.0 for u in v_a]
                    row_b[x_lo:x_end] = [u + 1.0 for u in h_b]
                    congestion = cong_l2
            if congestion > worst:
                worst = congestion
        worst_of_net.append(worst)
    grid.h_usage[...] = h_rows
    grid.v_usage[...] = np.array(v_cols).T
    return worst_of_net
