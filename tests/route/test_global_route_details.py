"""Detailed global-router behaviour tests."""

import pytest

from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, Floorplan
from repro.route import GCellGrid, GlobalRouter
from repro.route.global_route import DETOUR_FACTOR

from tests.route.reference import net_points_reference


def two_cell_design(x1, y1, x2, y2, die=100.0):
    lib = make_library()
    design = Design("r2", Floorplan(die_width=die, die_height=die, core_margin=0))
    a = design.add_instance("a", lib["INV_X1"])
    b = design.add_instance("b", lib["INV_X1"])
    a.x, a.y = x1, y1
    b.x, b.y = x2, y2
    net = design.add_net("n")
    design.connect_instance_pin(net, a, "Y")
    design.connect_instance_pin(net, b, "A")
    return design, net


class TestPatternRouting:
    def test_straight_horizontal(self):
        design, net = two_cell_design(10, 50, 90, 50)
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        grid = result.grid
        # Demand only in the row band containing y=50.
        assert grid.h_usage.sum() > 0
        assert grid.v_usage.sum() == 0
        assert result.net_lengths[net.index] == pytest.approx(80.0)

    def test_straight_vertical(self):
        design, net = two_cell_design(50, 10, 50, 90)
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        assert result.grid.v_usage.sum() > 0
        assert result.grid.h_usage.sum() == 0

    def test_l_route_uses_both_directions(self):
        design, net = two_cell_design(10, 10, 90, 90)
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        assert result.grid.h_usage.sum() > 0
        assert result.grid.v_usage.sum() > 0
        assert result.net_lengths[net.index] == pytest.approx(160.0)

    def test_same_gcell_zero_demand(self):
        design, net = two_cell_design(50.0, 50.0, 50.4, 50.4)
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        assert result.grid.h_usage.sum() == 0
        assert result.grid.v_usage.sum() == 0

    def test_l_pattern_avoids_congestion(self):
        """With one L-corner pre-congested, the router picks the other."""
        design, net = two_cell_design(10, 10, 90, 90)
        grid = GCellGrid.for_floorplan(design.floorplan)
        # Saturate the horizontal band at the source's row (y=10):
        # the horizontal-first L becomes expensive.
        row = grid.cell_of(10, 10)[1]
        grid.h_usage[row, :] = 100 * grid.h_capacity
        result = GlobalRouter(design.arrays(), grid=grid).run()
        # Vertical-first L: vertical demand in the source column.
        col = grid.cell_of(10, 10)[0]
        assert grid.v_usage[:, col].sum() > 0

    def test_detour_inflates_length(self):
        design, net = two_cell_design(10, 10, 90, 90)
        grid = GCellGrid.for_floorplan(design.floorplan)
        # Saturate everything: whatever path is taken is congested.
        grid.h_usage[:, :] = 3 * grid.h_capacity
        grid.v_usage[:, :] = 3 * grid.v_capacity
        result = GlobalRouter(design.arrays(), grid=grid).run()
        base = 160.0
        assert result.net_lengths[net.index] > base
        assert result.net_lengths[net.index] <= base * (1 + DETOUR_FACTOR * 5)

    def test_include_clock_flag(self, small_design_fresh):
        from repro.place import GlobalPlacer, PlacementProblem

        design = small_design_fresh
        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        without = GlobalRouter(design.arrays(), design.floorplan).run()
        with_clock = GlobalRouter(
            design.arrays(), design.floorplan, include_clock=True
        ).run()
        clock = design.net("clk_net")
        assert clock.index not in without.net_lengths
        assert clock.index in with_clock.net_lengths
        assert (
            with_clock.routed_wirelength > without.routed_wirelength
        )


class TestNetPointsReference:
    """The object walk (`net_points_reference`, kept in
    tests/route/reference.py) vs the CSR gather the router reads."""

    def _csr_points(self, design, include_clock=False):
        arrays = design.arrays()
        pin_vertex, offsets, net_indices = arrays.pin_vertex_csr(include_clock)
        vx, vy = arrays.vertex_positions()
        px = vx[pin_vertex]
        py = vy[pin_vertex]
        out = {}
        for i, net in enumerate(design.nets[n] for n in net_indices.tolist()):
            points = []
            seen = set()
            for pin in range(int(offsets[i]), int(offsets[i + 1])):
                x, y = float(px[pin]), float(py[pin])
                key = (round(x, 3), round(y, 3))
                if key not in seen:
                    seen.add(key)
                    points.append((x, y))
            out[net.index] = points
        return out

    def test_reference_matches_csr_gather(self):
        from repro.designs import DesignSpec, generate_design
        from repro.place import GlobalPlacer, PlacementProblem

        design = generate_design(
            DesignSpec("np_ref", 400, clock_period=0.8, logic_depth=6, seed=3)
        )
        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        csr = self._csr_points(design)
        checked = 0
        for net in design.nets:
            if net.index not in csr:
                continue
            assert net_points_reference(design, net) == csr[net.index]
            checked += 1
        assert checked > 0

    def test_reference_dedups_coincident_pins(self):
        design, net = two_cell_design(50.0, 50.0, 50.0, 50.0)
        assert net_points_reference(design, net) == [(50.0, 50.0)]
        # ... and the router agrees the net is degenerate.
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        assert result.net_lengths[net.index] == 0.0
