"""Additional targeted unit tests across modules."""

import numpy as np
import pytest

from repro.ml.model import TotalCostGNN
from repro.netlist.design import Floorplan
from repro.place.problem import PlacementProblem
from repro.route.cts import LEAF_GROUP_SIZE, synthesize_clock_tree
from repro.viz.svg import _cluster_color, _heat_color


class TestVizHelpers:
    def test_heat_color_bounds(self):
        for ratio in (-1.0, 0.0, 0.5, 1.0, 10.0):
            color = _heat_color(ratio)
            assert color.startswith("#") and len(color) == 7

    def test_heat_color_monotone_red(self):
        """Higher congestion is redder (more R, less G)."""
        low = _heat_color(0.1)
        high = _heat_color(1.4)
        r_low, g_low = int(low[1:3], 16), int(low[3:5], 16)
        r_high, g_high = int(high[1:3], 16), int(high[3:5], 16)
        assert r_high >= r_low
        assert g_high <= g_low

    def test_cluster_colors_distinct(self):
        colors = {_cluster_color(i, 20) for i in range(20)}
        assert len(colors) == 20


class TestCtsScaling:
    def make_design(self, num_ffs):
        from repro.designs.nangate45 import make_library
        from repro.netlist.design import Design, PinDirection

        lib = make_library()
        design = Design("cts", Floorplan(die_width=100, die_height=100))
        design.clock_port = "clk"
        design.add_port("clk", PinDirection.INPUT, 0, 0)
        rng = np.random.default_rng(0)
        for i in range(num_ffs):
            ff = design.add_instance(f"ff{i}", lib["DFF_X1"])
            ff.x, ff.y = rng.uniform(5, 95, 2)
        return design

    def test_small_group_single_level(self):
        design = self.make_design(LEAF_GROUP_SIZE)
        result = synthesize_clock_tree(design)
        assert result.num_buffers == 0  # all sinks fit one leaf group

    def test_buffer_count_grows(self):
        small = synthesize_clock_tree(self.make_design(32))
        large = synthesize_clock_tree(self.make_design(256))
        assert large.num_buffers > small.num_buffers
        assert large.wirelength > small.wirelength

    def test_skew_nonnegative(self):
        result = synthesize_clock_tree(self.make_design(100))
        assert result.skew >= 0


class TestModelStateDict:
    def test_state_dict_keys_stable(self):
        model = TotalCostGNN(seed=0)
        state = model.state_dict()
        # 54 params + feature stats (2) + label stats (1) + 13 BN pairs.
        num_params = len(model.parameters())
        num_bn = 1 + 4 * 3  # head + all conv blocks
        assert len(state) == num_params + 3 + 2 * num_bn

    def test_load_rejects_missing_keys(self):
        model = TotalCostGNN(seed=0)
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_roundtrip_through_dict(self):
        a = TotalCostGNN(seed=1)
        b = TotalCostGNN(seed=2)
        b.load_state_dict(a.state_dict())
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.allclose(pa.data, pb.data)


class TestProblemPositions:
    def test_set_positions_all(self, small_design_fresh):
        problem = PlacementProblem(small_design_fresh)
        xs = np.full(problem.num_vertices, 3.0)
        ys = np.full(problem.num_vertices, 4.0)
        problem.set_positions(xs, ys, only_movable=False)
        assert problem.x[problem.fixed].max() == 3.0

    def test_set_positions_movable_only(self, small_design_fresh):
        problem = PlacementProblem(small_design_fresh)
        fixed_x = problem.x[problem.fixed].copy()
        xs = np.full(problem.num_vertices, 9.0)
        ys = np.full(problem.num_vertices, 9.0)
        problem.set_positions(xs, ys)
        assert np.allclose(problem.x[problem.fixed], fixed_x)
        assert np.all(problem.x[problem.movable] == 9.0)


class TestBufferingDepthGuard:
    def test_max_levels_bounds_recursion(self, medium_design_fresh):
        from benchmarks.ext.opt.buffering import MAX_LEVELS, buffer_high_fanout_nets
        from repro.place import GlobalPlacer, PlacementProblem
        from repro.sta import PlacementWireModel

        design = medium_design_fresh
        GlobalPlacer(PlacementProblem(design)).run()
        n_before = design.num_instances
        # Absurdly small budget: recursion must stop at MAX_LEVELS.
        buffer_high_fanout_nets(
            design, PlacementWireModel(design), max_load=2.0
        )
        assert design.validate() == []
        assert design.num_instances > n_before


class TestLibertyUnknownAttrs:
    def test_unknown_attributes_ignored(self):
        from repro.netlist.liberty import parse_liberty

        text = """
        library (l) {
          operating_conditions (tt) { process : 1 ; }
          cell (X) {
            area : 2.8 ;
            dont_touch : true ;
            pin (A) { direction : input ; capacitance : 1.0 ;
                      rise_capacitance : 1.1 ; }
            pin (Y) { direction : output ; capacitance : 0.0 ; }
          }
        }
        """
        masters = parse_liberty(text)
        assert masters["X"].area == pytest.approx(2.8)
        assert set(masters["X"].pins) == {"A", "Y"}
