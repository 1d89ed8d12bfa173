"""Unit tests for the core netlist data model."""

import pytest

from repro.designs.nangate45 import make_library
from repro.netlist.design import (
    CellPin,
    Design,
    Floorplan,
    MasterCell,
    PinDirection,
    PinRef,
)


@pytest.fixture
def library():
    return make_library()


class TestMasterCell:
    def test_area(self, library):
        inv = library["INV_X1"]
        assert inv.area == pytest.approx(inv.width * inv.height)

    def test_input_pins_excludes_clock(self, library):
        dff = library["DFF_X1"]
        names = [p.name for p in dff.input_pins()]
        assert "D" in names
        assert "CK" not in names

    def test_output_pins(self, library):
        nand = library["NAND2_X1"]
        assert [p.name for p in nand.output_pins()] == ["Y"]

    def test_clock_pin(self, library):
        assert library["DFF_X1"].clock_pin().name == "CK"
        assert library["INV_X1"].clock_pin() is None

    def test_sequential_flags(self, library):
        assert library["DFF_X1"].is_sequential
        assert not library["NAND2_X1"].is_sequential
        assert library["RAM256X32"].is_macro


class TestInstance:
    def test_hierarchy_path(self, library):
        design = Design("t")
        inst = design.add_instance("a/b/U1", library["INV_X1"])
        assert inst.hierarchy_path == ["a", "b"]
        assert inst.local_name == "U1"

    def test_flat_instance_path(self, library):
        design = Design("t")
        inst = design.add_instance("U1", library["INV_X1"])
        assert inst.hierarchy_path == []
        assert inst.local_name == "U1"

    def test_index_assignment(self, library):
        design = Design("t")
        a = design.add_instance("a", library["INV_X1"])
        b = design.add_instance("b", library["INV_X1"])
        assert (a.index, b.index) == (0, 1)

    def test_duplicate_name_rejected(self, library):
        design = Design("t")
        design.add_instance("a", library["INV_X1"])
        with pytest.raises(ValueError):
            design.add_instance("a", library["INV_X1"])


class TestConnectivity:
    def test_driver_and_sinks(self, library):
        design = Design("t")
        u1 = design.add_instance("u1", library["INV_X1"])
        u2 = design.add_instance("u2", library["INV_X1"])
        net = design.add_net("n")
        design.connect_instance_pin(net, u1, "Y")
        design.connect_instance_pin(net, u2, "A")
        assert net.driver.instance is u1
        assert len(net.sinks) == 1
        assert net.fanout == 1
        assert net.degree == 2

    def test_double_driver_rejected(self, library):
        design = Design("t")
        u1 = design.add_instance("u1", library["INV_X1"])
        u2 = design.add_instance("u2", library["INV_X1"])
        net = design.add_net("n")
        design.connect_instance_pin(net, u1, "Y")
        with pytest.raises(ValueError):
            design.connect_instance_pin(net, u2, "Y")

    def test_input_port_drives(self, library):
        design = Design("t")
        design.add_port("in0", PinDirection.INPUT)
        net = design.add_net("n")
        design.connect_port(net, "in0")
        assert net.driver is not None
        assert net.driver.is_port

    def test_output_port_is_sink(self, library):
        design = Design("t")
        design.add_port("out0", PinDirection.OUTPUT)
        net = design.add_net("n")
        design.connect_port(net, "out0")
        assert net.driver is None
        assert len(net.sinks) == 1

    def test_unknown_pin_rejected(self, library):
        design = Design("t")
        u1 = design.add_instance("u1", library["INV_X1"])
        net = design.add_net("n")
        with pytest.raises(KeyError):
            design.connect_instance_pin(net, u1, "NOPE")

    def test_touches_port(self, toy_design):
        assert toy_design.net("n_in0").touches_port()
        assert not toy_design.net("n1").touches_port()

    def test_net_instances_distinct(self, library):
        design = Design("t")
        u1 = design.add_instance("u1", library["NAND2_X1"])
        u2 = design.add_instance("u2", library["INV_X1"])
        net = design.add_net("n")
        design.connect_instance_pin(net, u2, "Y")
        design.connect_instance_pin(net, u1, "A")
        design.connect_instance_pin(net, u1, "B")  # same inst twice
        assert len(list(net.instances())) == 2


class TestPinRef:
    def test_direction_resolution(self, toy_design):
        u1 = toy_design.instance("u1")
        ref = PinRef(u1, "A")
        assert ref.direction(toy_design) is PinDirection.INPUT
        port_ref = PinRef(None, "out0")
        assert port_ref.direction(toy_design) is PinDirection.OUTPUT

    def test_capacitance(self, toy_design):
        u1 = toy_design.instance("u1")
        assert PinRef(u1, "A").capacitance(toy_design) > 0
        assert PinRef(None, "out0").capacitance(toy_design) > 0


class TestDesignQueries:
    def test_stats_keys(self, toy_design):
        stats = toy_design.stats()
        assert stats["instances"] == 4
        assert stats["sequential"] == 1
        assert stats["ports"] == 4

    def test_signal_nets_exclude_clock(self, toy_design):
        _, _, signal = toy_design.arrays().pin_vertex_csr()
        names = {toy_design.nets[i].name for i in signal.tolist()}
        assert "clk_net" not in names
        assert "n1" in names

    def test_validate_clean(self, toy_design):
        assert toy_design.validate() == []

    def test_validate_catches_driverless(self, toy_design):
        bad = toy_design.add_net("floating")
        inst = toy_design.instance("u3")
        # Manually append a sink without a driver.
        bad.sinks.append(PinRef(inst, "A"))
        problems = toy_design.validate()
        assert any("no driver" in p for p in problems)

    def test_positions_roundtrip(self, toy_design):
        xs, ys = toy_design.positions()
        toy_design.set_positions([x + 1 for x in xs], [y + 2 for y in ys])
        assert toy_design.instance("u1").x == pytest.approx(xs[0] + 1)

    def test_set_positions_respects_fixed(self, toy_design):
        u1 = toy_design.instance("u1")
        u1.fixed = True
        xs, ys = toy_design.positions()
        toy_design.set_positions([99.0] * len(xs), [99.0] * len(ys))
        assert u1.x == pytest.approx(xs[0])

    def test_utilization(self, toy_design):
        assert 0 < toy_design.utilization() < 1


class TestFloorplan:
    def test_core_box(self):
        fp = Floorplan(die_width=100, die_height=80, core_margin=5)
        assert fp.core_llx == 5
        assert fp.core_urx == 95
        assert fp.core_width == 90
        assert fp.core_height == 70
        assert fp.core_area == pytest.approx(90 * 70)
