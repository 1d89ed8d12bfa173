"""Flat design snapshots: pickle safety and exact reconstruction."""

import io
import json
import pickle
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.netlist.arrays as arrays_module
from repro.cache import netlist_digest
from repro.core.vpr import extract_subnetlist
from repro.designs import DesignSpec, generate_design
from repro.designs.nangate45 import make_library
from repro.netlist import NetlistArrays, design_from_snapshot, design_snapshot
from repro.netlist.arrays import COLUMNS
from repro.netlist.design import Design, Floorplan, MasterCell, PinDirection
from repro.netlist.snapshot import netlist_from_snapshot
from tests.netlist.reference import design_from_reference, snapshot_reference


@pytest.fixture(scope="module")
def design():
    return generate_design(
        DesignSpec("snap", 300, clock_period=0.8, logic_depth=10, seed=11)
    )


class TestRoundtrip:
    def test_structure_preserved(self, design):
        rebuilt = design_from_snapshot(design_snapshot(design))
        assert rebuilt.name == design.name
        assert rebuilt.num_instances == design.num_instances
        assert rebuilt.num_nets == design.num_nets
        assert sorted(rebuilt.ports) == sorted(design.ports)
        assert rebuilt.clock_period == design.clock_period
        assert rebuilt.clock_port == design.clock_port

    def test_connectivity_and_roles_preserved(self, design):
        rebuilt = design_from_snapshot(design_snapshot(design))
        for original, copy in zip(design.nets, rebuilt.nets):
            assert original.name == copy.name
            assert original.weight == copy.weight
            assert original.is_clock == copy.is_clock
            if original.driver is None:
                assert copy.driver is None
            else:
                assert copy.driver.pin_name == original.driver.pin_name
            assert [r.pin_name for r in copy.sinks] == [
                r.pin_name for r in original.sinks
            ]

    def test_coordinates_and_floorplan_preserved(self, design):
        rebuilt = design_from_snapshot(design_snapshot(design))
        for original, copy in zip(design.instances, rebuilt.instances):
            assert (original.x, original.y) == (copy.x, copy.y)
            assert original.fixed == copy.fixed
        assert rebuilt.floorplan.die_width == design.floorplan.die_width
        assert rebuilt.floorplan.die_height == design.floorplan.die_height

    def test_master_timing_data_preserved(self, design):
        rebuilt = design_from_snapshot(design_snapshot(design))
        for name, m in design.masters.items():
            copy = rebuilt.masters[name]
            assert copy.intrinsic_delay == m.intrinsic_delay
            assert copy.drive_resistance == m.drive_resistance
            assert copy.leakage_power == m.leakage_power

    def test_content_digest_identical(self, design):
        """A rebuilt snapshot is the same content: it derives the
        content address the original does."""
        sub = extract_subnetlist(design, range(0, 120))
        rebuilt = design_from_snapshot(design_snapshot(sub))
        assert netlist_digest(rebuilt.arrays()) == netlist_digest(sub)
        assert netlist_digest(netlist_from_snapshot(design_snapshot(sub))) == (
            netlist_digest(sub)
        )


class TestPickleSafety:
    def test_snapshot_pickles_under_tight_recursion_limit(self, design):
        """The whole point: the flat form pickles in constant stack
        depth where the linked Design graph recurses."""
        sub = extract_subnetlist(design, range(0, 120))
        snapshot = design_snapshot(sub)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            blob = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            sys.setrecursionlimit(limit)
        restored = design_from_snapshot(pickle.loads(blob))
        assert netlist_digest(restored.arrays()) == netlist_digest(sub)


# ----------------------------------------------------------------------
# One flat form: the codec carries NetlistArrays columns
# ----------------------------------------------------------------------
def _lib():
    return make_library()


def _base(name="patho", ports=True):
    """in0 -> u1(INV) -> u2(NAND2.A), in1 -> u2.B, u2 -> out0."""
    lib = _lib()
    design = Design(name, Floorplan(die_width=30.0, die_height=24.0))
    for master in lib.values():
        design.add_master(master)
    u1 = design.add_instance("u1", lib["INV_X1"])
    u2 = design.add_instance("u2", lib["NAND2_X1"])
    n1 = design.add_net("n1")
    design.connect_instance_pin(n1, u1, "Y")
    design.connect_instance_pin(n1, u2, "A")
    if ports:
        design.add_port("in0", PinDirection.INPUT, 0.0, 5.0)
        design.add_port("in1", PinDirection.INPUT, 0.0, 9.0)
        design.add_port("out0", PinDirection.OUTPUT, 30.0, 7.0)
        for net_name, port, inst, pin in (
            ("n_in0", "in0", u1, "A"),
            ("n_in1", "in1", u2, "B"),
            ("n_out", "out0", u2, "Y"),
        ):
            net = design.add_net(net_name)
            design.connect_port(net, port)
            design.connect_instance_pin(net, inst, pin)
    return design


def _no_ports():
    return _base("no_ports", ports=False)


def _no_nets():
    design = Design("no_nets")
    design.add_instance("u1", _lib()["INV_X1"])
    design.add_port("in0", PinDirection.INPUT, 0.0, 1.0)
    return design


def _undriven_net():
    design = _base("undriven")
    lib = design.masters
    a = design.add_instance("a", lib["INV_X1"])
    b = design.add_instance("b", lib["INV_X1"])
    floating = design.add_net("floating")
    design.connect_instance_pin(floating, a, "A")
    design.connect_instance_pin(floating, b, "A")
    design.add_net("empty")
    return design


def _port_only_net():
    design = _base("port_only")
    design.add_port("thru_in", PinDirection.INPUT, 0.0, 12.0)
    design.add_port("thru_out", PinDirection.OUTPUT, 30.0, 12.0)
    feedthrough = design.add_net("feedthrough")
    design.connect_port(feedthrough, "thru_in")
    design.connect_port(feedthrough, "thru_out")
    return design


def _same_instance_twice():
    design = _base("twice")
    lib = design.masters
    driver = design.add_instance("drv", lib["INV_X1"])
    both = design.add_instance("both", lib["NAND2_X1"])
    net = design.add_net("tied")
    design.connect_instance_pin(net, driver, "Y")
    design.connect_instance_pin(net, both, "A")
    design.connect_instance_pin(net, both, "B")
    return design


def _resized_in_place():
    """replace_master on a design whose arrays are built: the cached
    form is patched, not rebuilt, and the codec ships the patch."""
    design = _base("resized")
    before = design.arrays()
    design.replace_master(design.instance("u1"), design.masters["INV_X2"])
    assert design.arrays() is before
    return design


def _blockage_added_and_removed():
    """The L-shape sweep's temporary macro, taken out the way
    ``evaluate_lshape`` takes it out (no construction-API call)."""
    design = _base("blockage")
    design.arrays()
    macro = MasterCell("__lshape_blockage__", 4.0, 3.0, is_macro=True, cell_class="macro")
    blockage = design.add_instance("__lshape_blockage__", macro)
    blockage.fixed = True
    design.arrays()
    design.instances.remove(blockage)
    design._instance_by_name.pop(blockage.name)
    design.masters.pop(macro.name)
    return design


def _one_instance_sub():
    return extract_subnetlist(_base("single"), [1]).to_design()


def _placed_weighted_fixed():
    design = _base("attrs")
    design.clock_period, design.clock_port = 0.75, "in0"
    design.instance("u1").x, design.instance("u1").y = 3.25, 17.5
    design.instance("u2").fixed = True
    design.net("n1").weight = 2.5
    design.input_activity = 0.125
    design.ports["in1"].x = 1.5
    return design


def _master_registered_late():
    design = _base("late_master")
    design.arrays()
    design.add_master(MasterCell("SPARE_X1", 1.0, 1.4, cell_class="buf"))
    return design


PATHOLOGICAL = [
    _base, _no_ports, _no_nets, _undriven_net, _port_only_net,
    _same_instance_twice, _resized_in_place, _blockage_added_and_removed,
    _one_instance_sub, _placed_weighted_fixed, _master_registered_late,
]


def _assert_roundtrip(design, monkeypatch, transport=lambda payload: payload):
    """Codec round trip == the design, by every measure there is."""
    rebuilt = design_from_snapshot(transport(design_snapshot(design)))
    assert snapshot_reference(rebuilt) == snapshot_reference(design)
    assert netlist_digest(rebuilt.arrays()) == netlist_digest(design.arrays())
    # ... and the design the construction-API decoder used to build,
    # down to the order each instance lists its nets in (sub-netlist
    # extraction follows it).
    oracle = design_from_reference(snapshot_reference(design))
    assert snapshot_reference(oracle) == snapshot_reference(rebuilt)
    assert [list(i.pin_nets) for i in oracle.instances] == [
        list(i.pin_nets) for i in rebuilt.instances
    ]
    walked = NetlistArrays.from_design(design)
    with monkeypatch.context() as patch:
        # The decoded arrays are the rebuilt design's cached form.
        patch.setattr(NetlistArrays, "from_design", _refuse_walk)
        decoded = rebuilt.arrays()
    for name in (*COLUMNS, "pin_cap", "pin_dir", "inst_area", "m_class_code"):
        got, want = getattr(decoded, name), getattr(walked, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for name in ("name_pool", "master_names", "master_classes", "inst_names", "net_names"):
        assert getattr(decoded, name) == getattr(walked, name), name
    return rebuilt


def _refuse_walk(*_args, **_kwargs):
    raise AssertionError("NetlistArrays.from_design called on a decoded design")


def _through_npz_and_json(payload):
    """What ROADMAP item 6 (a) needs next: no pickle anywhere."""
    buffer = io.BytesIO()
    np.savez(buffer, **payload["columns"])
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as columns:
        return {
            "form": payload["form"],
            "header": json.loads(json.dumps(payload["header"])),
            "columns": dict(columns),
        }


class TestOneFlatForm:
    @pytest.mark.parametrize("build", PATHOLOGICAL, ids=lambda f: f.__name__.strip("_"))
    def test_pathological_designs_round_trip(self, build, monkeypatch):
        _assert_roundtrip(build(), monkeypatch)

    @pytest.mark.parametrize("build", PATHOLOGICAL, ids=lambda f: f.__name__.strip("_"))
    def test_columns_survive_npz_and_header_survives_json(self, build, monkeypatch):
        _assert_roundtrip(build(), monkeypatch, transport=_through_npz_and_json)

    @given(
        size=st.integers(min_value=20, max_value=160),
        seed=st.integers(min_value=0, max_value=40),
        macros=st.integers(min_value=0, max_value=1),
        induce=st.booleans(),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_generated_designs_round_trip(self, size, seed, macros, induce, monkeypatch):
        design = generate_design(
            DesignSpec("prop", size, clock_period=0.8, num_macros=macros, seed=seed)
        )
        if induce:
            members = range(size // 4, size // 4 + size // 2)
            design = extract_subnetlist(design, members).to_design()
        _assert_roundtrip(design, monkeypatch, transport=_through_npz_and_json)

    @pytest.mark.parametrize("build", PATHOLOGICAL, ids=lambda f: f.__name__.strip("_"))
    def test_columns_decode_builds_no_object_view(self, build, monkeypatch):
        """What a fleet worker decodes: the columns, the same digest and
        the same snapshot again, with no object built."""
        design = build()
        payload = _through_npz_and_json(design_snapshot(design))
        monkeypatch.setattr(arrays_module, "Instance", _refuse_build)
        decoded = netlist_from_snapshot(payload)
        assert decoded.design is None
        assert netlist_digest(decoded) == netlist_digest(design.arrays())
        again = design_snapshot(decoded)
        assert again["header"] == payload["header"]
        for name in COLUMNS:
            got, want = again["columns"][name], payload["columns"][name]
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_snapshot_is_the_cached_form_not_a_second_walk(self, design, monkeypatch):
        design.arrays()
        monkeypatch.setattr(NetlistArrays, "from_design", _refuse_walk)
        payload = design_snapshot(design)
        assert set(payload) == {"form", "header", "columns"}
        assert set(payload["columns"]) == set(COLUMNS) | {"inst_x", "inst_y", "inst_fixed"}
        assert all(isinstance(c, np.ndarray) for c in payload["columns"].values())

    def test_payload_does_not_alias_the_live_arrays(self, design):
        payload = design_snapshot(design)
        payload["columns"]["inst_master"][:] = 0
        payload["columns"]["pin_slot"][:] = 0
        fresh = NetlistArrays.from_design(design)
        assert np.array_equal(design.arrays().inst_master, fresh.inst_master)
        assert np.array_equal(design.arrays().pin_slot, fresh.pin_slot)


class TestValidateThenBuild:
    """The codec is a trust boundary: a malformed payload is a
    ``ValueError`` naming the field, raised before anything is built."""

    @pytest.fixture()
    def payload(self, monkeypatch):
        payload = design_snapshot(_base())
        monkeypatch.setattr(arrays_module, "Instance", _refuse_build)
        monkeypatch.setattr(arrays_module, "Design", _refuse_build)
        return payload

    def _rejects(self, payload, match):
        """Both decoders, the columns-only one a fleet worker uses too."""
        for decode in (design_from_snapshot, netlist_from_snapshot):
            with pytest.raises(ValueError, match=match):
                decode(payload)

    def test_wrong_tag(self, payload):
        payload["form"] = "repro.netlist.arrays/0"
        self._rejects(payload, "not a repro.netlist.arrays/2")

    def test_the_tuple_form_of_older_builds(self, payload):
        self._rejects(snapshot_reference(_base()), "not a repro.netlist.arrays/2")
        self._rejects(["not", "a", "dict"], "not a repro.netlist.arrays/2")

    def test_the_per_net_activity_form(self, payload):
        """``/1`` carried a per-net activity column and no input toggle
        rate: refused by its tag, never read at a default rate."""
        payload["form"] = "repro.netlist.arrays/1"
        del payload["header"]["input_activity"]
        nets = len(payload["header"]["net_names"])
        payload["columns"]["net_activity"] = np.zeros(nets)
        self._rejects(payload, "not a repro.netlist.arrays/2")

    @pytest.mark.parametrize("name", ["clock_period", "input_activity"])
    def test_timing_scalars_are_numbers(self, payload, name):
        """A string period decoded, then failed deep inside STA with an
        undiagnosed NumPy type error."""
        payload["header"][name] = "0.5"
        self._rejects(payload, name)

    def test_missing_parts(self, payload):
        self._rejects({"form": payload["form"]}, "header")
        del payload["columns"]["net_weight"]
        self._rejects(payload, "net_weight")

    @pytest.mark.parametrize("column", ["pin_slot", "net_weight", "inst_x", "mp_cap"])
    def test_truncated_column(self, payload, column):
        payload["columns"][column] = payload["columns"][column][:-1]
        self._rejects(payload, column if column != "mp_cap" else "mp_")

    def test_truncated_header_list(self, payload):
        payload["header"]["net_names"].pop()
        self._rejects(payload, "net_")
        payload["header"]["master_classes"].pop()
        self._rejects(payload, "master_classes")

    @pytest.mark.parametrize(
        "column, value",
        [
            ("inst_master", -1), ("inst_master", 10**6), ("pin_inst", -2),
            ("pin_inst", 2), ("pin_port", 3), ("pin_slot", 10**6),
            ("pin_name_idx", -1), ("mp_name_idx", 10**6), ("port_dir", 3),
            ("port_name_idx", -1),
        ],
    )
    def test_index_out_of_range(self, payload, column, value):
        payload["columns"][column][0] = value
        self._rejects(payload, column)

    @pytest.mark.parametrize("column", ["net_ptr", "mp_ptr"])
    def test_offsets_not_monotone_from_zero_to_the_row_count(self, payload, column):
        good = payload["columns"][column]
        for bad in (good + 1, good[::-1].copy(), np.r_[good[:-1], good[-1] + 1]):
            payload["columns"][column] = bad
            self._rejects(payload, column)

    def test_wrong_dtype_kind(self, payload):
        payload["columns"]["pin_inst"] = payload["columns"]["pin_inst"].astype(float)
        self._rejects(payload, "pin_inst")

    def test_port_and_instance_pins_disagree(self, payload):
        row = int(np.flatnonzero(payload["columns"]["pin_inst"] < 0)[0])
        payload["columns"]["pin_port"][row] = -1
        self._rejects(payload, "pin_port")

    def test_floorplan_arity(self, payload):
        payload["header"]["floorplan"] = payload["header"]["floorplan"][:4]
        self._rejects(payload, "floorplan")


def _refuse_build(*_args, **_kwargs):
    raise AssertionError("a design object was built from an unvalidated payload")
