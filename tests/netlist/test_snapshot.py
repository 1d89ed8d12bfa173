"""Flat design snapshots: pickle safety and exact reconstruction."""

import pickle
import sys

import pytest

from repro.cache import netlist_digest
from repro.core.vpr import extract_subnetlist
from repro.designs import DesignSpec, generate_design
from repro.netlist import design_from_snapshot, design_snapshot


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
        assert netlist_digest(rebuilt) == netlist_digest(sub)


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
        assert netlist_digest(restored) == netlist_digest(sub)
