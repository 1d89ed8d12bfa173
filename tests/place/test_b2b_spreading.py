"""B2B net model and density spreading tests."""

import warnings

import numpy as np
import pytest

from repro.netlist.design import Floorplan
from repro.place.b2b import MIN_SEPARATION, b2b_edges, solve_axis
from repro.place.spreading import DensityGrid, _bin_index, spreading_targets


class TestB2BEdges:
    def test_two_pin_net(self):
        pin_vertex = np.array([0, 1])
        offsets = np.array([0, 2])
        weights = np.array([1.0])
        coords = np.array([0.0, 10.0])
        u, v, w = b2b_edges(pin_vertex, offsets, weights, coords)
        assert len(u) == 1
        assert {int(u[0]), int(v[0])} == {0, 1}
        # weight = w * 2/((p-1) * dist) = 2/10
        assert w[0] == pytest.approx(0.2)

    def test_three_pin_net_edge_count(self):
        pin_vertex = np.array([0, 1, 2])
        offsets = np.array([0, 3])
        weights = np.array([1.0])
        coords = np.array([0.0, 5.0, 10.0])
        u, v, w = b2b_edges(pin_vertex, offsets, weights, coords)
        # inner pin connects to both extremes + one min-max edge = 3.
        assert len(u) == 3

    def test_coincident_pins_clamped(self):
        pin_vertex = np.array([0, 1])
        offsets = np.array([0, 2])
        weights = np.array([1.0])
        coords = np.array([5.0, 5.0])
        _u, _v, w = b2b_edges(pin_vertex, offsets, weights, coords)
        assert w[0] == pytest.approx(2.0 / MIN_SEPARATION)

    def test_net_weight_scales_edges(self):
        pin_vertex = np.array([0, 1])
        offsets = np.array([0, 2])
        coords = np.array([0.0, 10.0])
        _u, _v, w1 = b2b_edges(pin_vertex, offsets, np.array([1.0]), coords)
        _u, _v, w4 = b2b_edges(pin_vertex, offsets, np.array([4.0]), coords)
        assert w4[0] == pytest.approx(4 * w1[0])


class TestSolveAxis:
    def test_single_movable_between_two_fixed(self):
        """A movable vertex connected to fixed points at 0 and 10 with
        equal weights settles at the weighted centroid."""
        u = np.array([0, 1])
        v = np.array([2, 2])
        w = np.array([1.0, 1.0])
        coords = np.array([0.0, 10.0, 3.0])
        fixed = np.array([True, True, False])
        out = solve_axis(u, v, w, coords, fixed)
        assert out[2] == pytest.approx(5.0, abs=1e-4)
        assert out[0] == 0.0 and out[1] == 10.0

    def test_weighted_centroid(self):
        u = np.array([0, 1])
        v = np.array([2, 2])
        w = np.array([3.0, 1.0])
        coords = np.array([0.0, 10.0, 5.0])
        fixed = np.array([True, True, False])
        out = solve_axis(u, v, w, coords, fixed)
        assert out[2] == pytest.approx(2.5, abs=1e-4)

    def test_anchor_pulls_solution(self):
        u = np.array([0])
        v = np.array([1])
        w = np.array([1.0])
        coords = np.array([0.0, 4.0])
        fixed = np.array([True, False])
        anchors = np.array([0.0, 100.0])
        anchor_w = np.array([0.0, 1.0])
        out = solve_axis(u, v, w, coords, fixed, anchors, anchor_w)
        assert out[1] == pytest.approx(50.0, abs=1e-3)

    def test_isolated_vertex_stays(self):
        out = solve_axis(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
            np.array([7.0]),
            np.array([False]),
        )
        assert out[0] == pytest.approx(7.0)

    def test_chain_equilibrium(self):
        """0 -x- m1 -x- m2 -x- 10: equal springs space evenly."""
        u = np.array([0, 2, 3])
        v = np.array([2, 3, 1])
        w = np.array([1.0, 1.0, 1.0])
        coords = np.array([0.0, 9.0, 1.0, 2.0])
        fixed = np.array([True, True, False, False])
        out = solve_axis(u, v, w, coords, fixed)
        assert out[2] == pytest.approx(3.0, abs=1e-3)
        assert out[3] == pytest.approx(6.0, abs=1e-3)


class TestDensityGrid:
    def make_grid(self):
        fp = Floorplan(die_width=100, die_height=100, core_margin=0)
        return DensityGrid(floorplan=fp, bins_x=10, bins_y=10)

    def test_bin_of(self):
        grid = self.make_grid()
        bx, by = grid.bin_of(np.array([5.0, 95.0]), np.array([15.0, 99.0]))
        assert list(bx) == [0, 9]
        assert list(by) == [1, 9]

    def test_out_of_range_clipped(self):
        grid = self.make_grid()
        bx, by = grid.bin_of(np.array([-5.0, 200.0]), np.array([-1.0, 200.0]))
        assert list(bx) == [0, 9]
        assert list(by) == [0, 9]

    def test_non_finite_coordinates_get_defined_bins(self):
        grid = self.make_grid()
        coords = np.array([np.nan, np.inf, -np.inf, 1e300, 55.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bx, by = grid.bin_of(coords, coords[::-1].copy())
        assert list(bx) == [0, 9, 0, 9, 5]
        assert list(by) == [5, 9, 0, 9, 0]

    def test_non_finite_band_coordinates_get_defined_bands(self):
        scaled = np.array([[np.nan, np.inf, -np.inf, -0.5, 3.99, 8.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            band = _bin_index(scaled, 8)
        assert band.dtype == np.int64
        assert band.tolist() == [[0, 7, 0, 0, 3, 7]]

    def test_utilization_accumulates(self):
        grid = self.make_grid()
        x = np.array([5.0, 6.0])
        y = np.array([5.0, 6.0])
        areas = np.array([10.0, 20.0])
        movable = np.array([True, True])
        util = grid.utilization(x, y, areas, movable)
        assert util[0, 0] == pytest.approx(30.0 / 100.0)
        assert util.sum() == pytest.approx(0.3)

    def test_overflow_zero_when_spread(self):
        grid = self.make_grid()
        rng = np.random.default_rng(0)
        n = 400
        x = rng.uniform(0, 100, n)
        y = rng.uniform(0, 100, n)
        areas = np.full(n, 0.05)
        movable = np.ones(n, dtype=bool)
        assert grid.overflow(x, y, areas, movable, 1.0) == pytest.approx(
            0.0, abs=0.05
        )

    def test_overflow_one_when_stacked(self):
        grid = self.make_grid()
        n = 100
        x = np.full(n, 50.0)
        y = np.full(n, 50.0)
        areas = np.full(n, 10.0)
        movable = np.ones(n, dtype=bool)
        assert grid.overflow(x, y, areas, movable, 1.0) > 0.85

    def test_for_problem_bounds(self):
        fp = Floorplan()
        tiny = DensityGrid.for_problem(fp, 10)
        huge = DensityGrid.for_problem(fp, 10**6)
        assert tiny.bins_x == 8
        assert huge.bins_x == 64


class TestSpreadingTargets:
    def test_nan_system_spreads_without_casting_nan(self):
        fp = Floorplan(die_width=100, die_height=100, core_margin=0)
        grid = DensityGrid(floorplan=fp, bins_x=8, bins_y=8)
        x = np.linspace(10, 90, 6)
        y = np.linspace(10, 90, 6)
        x[2] = y[4] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tx, ty = spreading_targets(
                grid, x, y, np.ones(6), np.ones(6, dtype=bool)
            )
        assert tx.shape == ty.shape == (6,)

    def test_stacked_cells_spread_out(self):
        fp = Floorplan(die_width=100, die_height=100, core_margin=0)
        grid = DensityGrid(floorplan=fp, bins_x=8, bins_y=8)
        n = 50
        x = np.full(n, 50.0)
        y = np.linspace(10, 90, n)  # distinct bands
        areas = np.ones(n)
        movable = np.ones(n, dtype=bool)
        # With one band all stacked in x, full-strength equalization
        # distributes them across the width.
        x2 = np.full(n, 50.0)
        y2 = np.full(n, 50.0)  # all in one band now
        tx2, _ = spreading_targets(grid, x2, y2, areas, movable, strength=1.0)
        assert tx2.max() - tx2.min() > 50.0

    def test_fixed_vertices_untouched(self):
        fp = Floorplan(die_width=100, die_height=100, core_margin=0)
        grid = DensityGrid(floorplan=fp, bins_x=4, bins_y=4)
        x = np.array([50.0, 50.0])
        y = np.array([50.0, 50.0])
        areas = np.ones(2)
        movable = np.array([True, False])
        tx, ty = spreading_targets(grid, x, y, areas, movable)
        assert tx[1] == 50.0 and ty[1] == 50.0

    def test_strength_damps_motion(self):
        fp = Floorplan(die_width=100, die_height=100, core_margin=0)
        grid = DensityGrid(floorplan=fp, bins_x=4, bins_y=4)
        n = 20
        x = np.full(n, 10.0)
        y = np.full(n, 50.0)
        areas = np.ones(n)
        movable = np.ones(n, dtype=bool)
        tx_weak, _ = spreading_targets(grid, x, y, areas, movable, strength=0.2)
        tx_strong, _ = spreading_targets(grid, x, y, areas, movable, strength=1.0)
        assert np.abs(tx_weak - x).max() < np.abs(tx_strong - x).max()
