"""Enablement registry and ASAP7-lite tests."""

import pytest

from repro.designs import DesignSpec, generate_design
from repro.designs.asap7 import make_library as make_asap7
from repro.designs.enablements import available, get_enablement
from repro.designs.nangate45 import make_library as make_ng45


class TestRegistry:
    def test_available(self):
        assert available() == ["asap7", "nangate45"]

    def test_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown enablement"):
            get_enablement("tsmc3")

    def test_mix_names_resolve(self):
        for name in available():
            enablement = get_enablement(name)
            lib = enablement.make_library()
            for cell, _w in enablement.comb_mix + enablement.seq_mix:
                assert cell in lib
            assert enablement.ram_cell in lib


class TestAsap7Library:
    def test_scaled_geometry(self):
        ng45 = make_ng45()
        asap7 = make_asap7()
        assert asap7["ASAP7_INV_X1"].height < ng45["INV_X1"].height
        assert asap7["ASAP7_INV_X1"].area < ng45["INV_X1"].area

    def test_faster_cells(self):
        ng45 = make_ng45()
        asap7 = make_asap7()
        assert (
            asap7["ASAP7_NAND2_X1"].intrinsic_delay
            < ng45["NAND2_X1"].intrinsic_delay
        )
        assert (
            asap7["ASAP7_DFF_X1"].clk_to_q < ng45["DFF_X1"].clk_to_q
        )

    def test_smaller_caps(self):
        asap7 = make_asap7()
        assert asap7["ASAP7_NAND2_X1"].pins["A"].capacitance < 0.5

    def test_sequential_and_macro_present(self):
        asap7 = make_asap7()
        assert asap7["ASAP7_DFF_X1"].is_sequential
        assert asap7["ASAP7_RAM256X32"].is_macro


class TestAsap7Generation:
    @pytest.fixture(scope="class")
    def design(self):
        return generate_design(
            DesignSpec(
                "a7",
                400,
                clock_period=0.25,
                logic_depth=10,
                enablement="asap7",
                num_macros=1,
                seed=5,
            )
        )

    def test_valid(self, design):
        assert design.validate() == []

    def test_row_height_applied(self, design):
        assert design.floorplan.row_height == pytest.approx(0.27)

    def test_die_much_smaller_than_ng45(self, design):
        ng45 = generate_design(
            DesignSpec("n45", 400, clock_period=0.7, logic_depth=10, seed=5)
        )
        assert design.floorplan.die_width < 0.5 * ng45.floorplan.die_width

    def test_flows_end_to_end(self, design):
        from repro.core import default_flow

        import copy

        fresh = generate_design(
            DesignSpec(
                "a7",
                400,
                clock_period=0.25,
                logic_depth=10,
                enablement="asap7",
                num_macros=1,
                seed=5,
            )
        )
        metrics = default_flow(fresh).metrics
        assert metrics.rwl > 0
        assert metrics.power > 0

    def test_timing_graph_acyclic(self, design):
        from repro.sta import TimingGraph

        graph = TimingGraph(design.arrays())
        assert len(graph.topo_order) == graph.num_nodes
