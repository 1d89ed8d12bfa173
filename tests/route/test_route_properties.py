"""Property-based router invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, Floorplan
from repro.route import GCellGrid, GlobalRouter
from repro.route.steiner import rsmt


def random_net_design(points):
    lib = make_library()
    design = Design(
        "p", Floorplan(die_width=100, die_height=100, core_margin=0)
    )
    driver = design.add_instance("drv", lib["INV_X1"])
    driver.x, driver.y = points[0]
    net = design.add_net("n")
    design.connect_instance_pin(net, driver, "Y")
    for i, (x, y) in enumerate(points[1:]):
        sink = design.add_instance(f"s{i}", lib["INV_X1"])
        sink.x, sink.y = x, y
        design.connect_instance_pin(net, sink, "A")
    return design, net


coords = st.tuples(
    st.floats(min_value=1, max_value=99, allow_nan=False),
    st.floats(min_value=1, max_value=99, allow_nan=False),
)


class TestRouterProperties:
    @given(st.lists(coords, min_size=2, max_size=10, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_demand_conservation(self, points):
        """Total grid demand equals the sum of GCell spans of the
        routed tree edges (every edge unit is accounted exactly once)."""
        design, net = random_net_design(points)
        grid = GCellGrid.for_floorplan(design.floorplan)
        GlobalRouter(design.arrays(), grid=grid).run()
        demand = grid.h_usage.sum() + grid.v_usage.sum()

        tree = rsmt(points)
        expected = 0.0
        for i, j in tree.edges:
            (ax, ay), (bx, by) = tree.points[i], tree.points[j]
            ca, cb = grid.cell_of(ax, ay), grid.cell_of(bx, by)
            if ca == cb:
                continue
            dx = abs(ca[0] - cb[0])
            dy = abs(ca[1] - cb[1])
            # An L route occupies (dx+1) cells horizontally and (dy+1)
            # vertically, minus nothing (corner counted in both axes'
            # own direction); straight segments occupy span+1 cells.
            if dx == 0:
                expected += dy + 1
            elif dy == 0:
                expected += dx + 1
            else:
                expected += (dx + 1) + (dy + 1)
        assert demand == pytest.approx(expected)

    @given(st.lists(coords, min_size=2, max_size=8, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_routed_length_bounds(self, points):
        """Routed net length sits between HPWL/2 and the congestion-free
        Steiner length (no congestion in a single-net design)."""
        design, net = random_net_design(points)
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        length = result.net_lengths[net.index]
        assert length >= hpwl / 2 - 1e-6
        tree = rsmt(points)
        assert length == pytest.approx(tree.length)

    @given(st.lists(coords, min_size=2, max_size=8, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_single_net_never_overflows(self, points):
        design, _net = random_net_design(points)
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        assert result.overflow_fraction == 0.0
