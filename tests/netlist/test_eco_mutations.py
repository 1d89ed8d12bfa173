"""ECO mutation API: surgical invalidation of memoised views.

Satellite regression for the incremental ECO path: the mutation
helpers must keep every memoised view honest — ``arrays()`` on
:class:`Design`, and the ``hypergraph`` / ``hierarchy`` properties on
:class:`DesignDatabase`
(which previously cached forever and served stale incidence after a
pin reconnection).
"""

import numpy as np
import pytest

from repro.db.database import DesignDatabase
from repro.designs.nangate45 import make_library


class TestReplaceMaster:
    def test_swaps_master_and_area(self, toy_design):
        u2 = toy_design.instance("u2")
        lib = make_library()
        toy_design.replace_master(u2, lib["NAND2_X2"])
        assert u2.master.name == "NAND2_X2"

    def test_rejects_pin_mismatch(self, toy_design):
        u2 = toy_design.instance("u2")  # NAND2: pins A, B, Y connected
        lib = make_library()
        with pytest.raises(ValueError, match="pin"):
            toy_design.replace_master(u2, lib["INV_X1"])  # no B pin

    def test_arrays_patched_in_place(self, toy_design):
        """A master swap re-keys the flattened arrays, no full rebuild."""
        lib = make_library()
        # Register the target master up front so it is in the flattened
        # master tables when the swap happens.
        toy_design.add_master(lib["NAND2_X2"])
        arrays_before = toy_design.arrays()
        u2 = toy_design.instance("u2")
        old_area = float(arrays_before.inst_area[u2.index])
        toy_design.replace_master(u2, toy_design.masters["NAND2_X2"])
        arrays_after = toy_design.arrays()
        assert arrays_after is arrays_before  # patched, not rebuilt
        assert float(arrays_after.inst_area[u2.index]) != old_area
        assert float(arrays_after.inst_area[u2.index]) == pytest.approx(
            u2.master.area
        )

    def test_arrays_rebuilt_for_unknown_master(self, toy_design):
        """Swapping to a master absent from the flattened tables falls
        back to a lazy full rebuild (still correct, just not patched)."""
        arrays_before = toy_design.arrays()
        lib = make_library()
        u2 = toy_design.instance("u2")
        toy_design.replace_master(u2, lib["NAND2_X2"])
        arrays_after = toy_design.arrays()
        assert arrays_after is not arrays_before
        assert float(arrays_after.inst_area[u2.index]) == pytest.approx(
            u2.master.area
        )


class TestReconnectPin:
    def test_moves_pin_between_nets(self, toy_design):
        u2 = toy_design.instance("u2")
        target = toy_design.net("n_in0")
        old = u2.pin_nets["B"]
        toy_design.reconnect_pin(u2, "B", target)
        assert u2.pin_nets["B"] is target
        assert all(
            ref.instance is not u2 or ref.pin_name != "B"
            for ref in old.pins()
        )
        assert any(
            ref.instance is u2 and ref.pin_name == "B"
            for ref in target.sinks
        )

    def test_invalidates_degree_cache(self, toy_design):
        target = toy_design.net("n_in0")
        before = int(toy_design.arrays().net_degree[target.index])
        u2 = toy_design.instance("u2")
        toy_design.reconnect_pin(u2, "B", target)
        assert int(toy_design.arrays().net_degree[target.index]) == before + 1

    def test_invalidates_arrays(self, toy_design):
        arrays_before = toy_design.arrays()
        u2 = toy_design.instance("u2")
        toy_design.reconnect_pin(u2, "B", toy_design.net("n_in0"))
        assert toy_design.arrays() is not arrays_before

    def test_invalidates_database_hypergraph(self, toy_design):
        """The PR 10 satellite fix: DesignDatabase.hypergraph must not
        serve pre-reconnect incidence."""
        db = DesignDatabase(toy_design)
        before = db.hypergraph
        edges_before = before.num_edges
        u2 = toy_design.instance("u2")
        toy_design.reconnect_pin(u2, "B", toy_design.net("n_in0"))
        after = db.hypergraph
        assert after is not before
        # n_in0 now connects two instances (u1, u2) and becomes a
        # hyperedge; n_in1 keeps only port pins and stays out.
        assert after.num_edges == edges_before + 1
        assert db.hypergraph is after  # re-cached under the new key

    def test_noop_reconnect_keeps_caches(self, toy_design):
        arrays_before = toy_design.arrays()
        u2 = toy_design.instance("u2")
        toy_design.reconnect_pin(u2, "B", u2.pin_nets["B"])
        assert toy_design.arrays() is arrays_before

    def test_unknown_pin_rejected(self, toy_design):
        with pytest.raises(KeyError):
            toy_design.reconnect_pin(
                toy_design.instance("u2"), "Q", toy_design.net("n_in0")
            )


class TestRemove:
    def test_remove_instance_renumbers(self, toy_design):
        u1 = toy_design.instance("u1")
        n = toy_design.num_instances
        toy_design.remove_instance(u1)
        assert toy_design.num_instances == n - 1
        assert u1.index == -1
        assert not toy_design.has_instance("u1")
        assert [i.index for i in toy_design.instances] == list(range(n - 1))

    def test_remove_instance_detaches_pins(self, toy_design):
        u1 = toy_design.instance("u1")
        nets = list(u1.pin_nets.values())
        toy_design.remove_instance(u1)
        for net in nets:
            assert all(ref.instance is not u1 for ref in net.pins())

    def test_remove_net_renumbers(self, toy_design):
        net = toy_design.net("n1")
        n = toy_design.num_nets
        toy_design.remove_net(net)
        assert toy_design.num_nets == n - 1
        assert net.index == -1
        assert [e.index for e in toy_design.nets] == list(range(n - 1))
        u1 = toy_design.instance("u1")
        assert "Y" not in u1.pin_nets

    def test_validate_after_removal_chain(self, toy_design):
        """Removing an instance plus its now-degenerate nets leaves a
        structurally valid design."""
        u3 = toy_design.instance("u3")
        nets = list(u3.pin_nets.values())
        toy_design.remove_instance(u3)
        for net in nets:
            if net.degree == 0 or (net.driver is None and net.degree > 0):
                toy_design.remove_net(net)
        toy_design.validate()


class TestStructureKey:
    def test_bumps_on_topology_not_geometry_queries(self, toy_design):
        key0 = toy_design.structure_key()
        toy_design.instance("u1").x += 1.0  # geometry only
        assert toy_design.structure_key() == key0
        toy_design.reconnect_pin(
            toy_design.instance("u2"), "B", toy_design.net("n_in0")
        )
        assert toy_design.structure_key() != key0

    def test_arrays_consistent_after_mixed_edits(self, toy_design):
        lib = make_library()
        toy_design.add_master(lib["NAND2_X2"])
        toy_design.replace_master(
            toy_design.instance("u2"), toy_design.masters["NAND2_X2"]
        )
        toy_design.remove_instance(toy_design.instance("u3"))
        arrays = toy_design.arrays()
        assert arrays.inst_master.shape[0] == toy_design.num_instances
        areas = np.array([i.master.area for i in toy_design.instances])
        assert np.allclose(arrays.inst_area, areas)
