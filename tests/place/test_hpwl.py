"""HPWL metric tests, including object/array equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.place.hpwl import hpwl, hpwl_arrays, net_hpwl
from repro.place.problem import PlacementProblem

_HPWL_DESIGN = None


def _hpwl_test_design():
    """Module-cached design for the hypothesis test (mutated freely)."""
    global _HPWL_DESIGN
    if _HPWL_DESIGN is None:
        from repro.designs import DesignSpec, generate_design

        _HPWL_DESIGN = generate_design(
            DesignSpec("hp", 200, clock_period=0.7, seed=21)
        )
    return _HPWL_DESIGN


class TestNetHpwl:
    def test_two_pin(self, toy_design):
        u1 = toy_design.instance("u1")
        u2 = toy_design.instance("u2")
        u1.x, u1.y = 0.0, 0.0
        u2.x, u2.y = 3.0, 4.0
        assert net_hpwl(toy_design, toy_design.net("n1")) == pytest.approx(7.0)

    def test_includes_ports(self, toy_design):
        net = toy_design.net("n_in0")
        port = toy_design.ports["in0"]
        u1 = toy_design.instance("u1")
        expected = abs(port.x - u1.x) + abs(port.y - u1.y)
        assert net_hpwl(toy_design, net) == pytest.approx(expected)

    def test_single_pin_zero(self, toy_design):
        empty = toy_design.add_net("lonely")
        assert net_hpwl(toy_design, empty) == 0.0


class TestDesignHpwl:
    def test_excludes_clock_by_default(self, toy_design):
        with_clock = hpwl(toy_design.arrays(), include_clock=True)
        without = hpwl(toy_design.arrays())
        assert with_clock > without

    def test_weighted(self, toy_design):
        toy_design.net("n1").weight = 10.0
        unweighted = hpwl(toy_design.arrays())
        weighted = hpwl(toy_design.arrays(), weighted=True)
        assert weighted > unweighted

    def test_translation_invariant_for_internal_nets(self, toy_design):
        n1 = net_hpwl(toy_design, toy_design.net("n1"))
        for inst in toy_design.instances:
            inst.x += 5.0
        assert net_hpwl(toy_design, toy_design.net("n1")) == pytest.approx(n1)


class TestArrayEquivalence:
    def test_matches_object_model(self, small_design):
        problem = PlacementProblem(small_design.arrays(), small_design.floorplan)
        from_arrays = problem.hpwl()
        from_objects = hpwl(small_design.arrays())
        assert from_arrays == pytest.approx(from_objects)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_positions_still_match(self, seed):
        design = _hpwl_test_design()
        rng = np.random.default_rng(seed)
        for inst in design.instances:
            inst.x = float(rng.uniform(0, 50))
            inst.y = float(rng.uniform(0, 50))
        problem = PlacementProblem(design.arrays(), design.floorplan)
        assert problem.hpwl() == pytest.approx(hpwl(design.arrays()))

    def test_hpwl_arrays_direct(self):
        # Net 0: vertices {0,1}; net 1: {0,1,2}
        pin_vertex = np.array([0, 1, 0, 1, 2])
        offsets = np.array([0, 2, 5])
        x = np.array([0.0, 1.0, 5.0])
        y = np.array([0.0, 2.0, 0.0])
        value = hpwl_arrays(pin_vertex, offsets, x, y)
        assert value == pytest.approx((1 + 2) + (5 + 2))

    def test_weights_applied(self):
        pin_vertex = np.array([0, 1])
        offsets = np.array([0, 2])
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 0.0])
        assert hpwl_arrays(
            pin_vertex, offsets, x, y, weights=np.array([3.0])
        ) == pytest.approx(3.0)

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert hpwl_arrays(empty, np.array([0]), np.zeros(0), np.zeros(0)) == 0.0


class TestMemoInvalidation:
    """The cached pin arrays must follow count-preserving edits: the
    memo used to be keyed on entity counts alone and went stale."""

    @staticmethod
    def _walk(design):
        return sum(
            net_hpwl(design, net)
            for net in design.nets
            if not net.is_clock and net.degree >= 2
        )

    def test_reconnect_pin_rebuilds_pin_arrays(self, toy_design):
        assert hpwl(toy_design.arrays()) == pytest.approx(self._walk(toy_design))
        u2 = toy_design.instance("u2")
        u2.x, u2.y = 17.0, 3.0  # far from n_in0's pins: the move shows
        toy_design.disconnect_pin(u2, "B")
        toy_design.reconnect_pin(u2, "B", toy_design.net("n_in0"))
        assert hpwl(toy_design.arrays()) == pytest.approx(self._walk(toy_design), rel=1e-12)

    def test_add_then_remove_rebuilds_pin_arrays(self, toy_design):
        from repro.designs.nangate45 import make_library

        assert hpwl(toy_design.arrays()) == pytest.approx(self._walk(toy_design))
        buf = toy_design.add_instance("u_buf", make_library()["BUF_X1"])
        buf.x, buf.y = 19.0, 1.0
        toy_design.connect_instance_pin(toy_design.net("n1"), buf, "A")
        toy_design.remove_instance(toy_design.instance("u3"))
        assert hpwl(toy_design.arrays()) == pytest.approx(self._walk(toy_design), rel=1e-12)
