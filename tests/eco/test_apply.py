"""Applying edit scripts to a live design: touched-set bookkeeping."""

import numpy as np
import pytest

from repro.designs.nangate45 import make_library
from repro.eco import EcoError, apply_edits, parse_edits


def _apply(design, payloads):
    return apply_edits(design, parse_edits(payloads))


class TestResizeSwap:
    def test_resize_touches_instance_and_nets(self, toy_design):
        lib = make_library()
        toy_design.add_master(lib["NAND2_X2"])
        u2 = toy_design.instance("u2")
        impact = _apply(
            toy_design,
            [{"kind": "resize", "instance": "u2", "master": "NAND2_X2"}],
        )
        assert u2.master.name == "NAND2_X2"
        assert impact.touched_instances == {u2.index}
        assert impact.touched_nets == {
            net.index for net in u2.pin_nets.values()
        }
        assert not impact.topology_changed
        # Identity map: nothing was renumbered.
        assert np.array_equal(
            impact.instance_map, np.arange(toy_design.num_instances)
        )

    def test_unknown_master_named(self, toy_design):
        with pytest.raises(EcoError, match="edit #0.*no master.*TURBO_X9"):
            _apply(
                toy_design,
                [{"kind": "swap", "instance": "u2", "master": "TURBO_X9"}],
            )

    def test_unknown_instance_named(self, toy_design):
        with pytest.raises(EcoError, match="no instance named 'u99'"):
            _apply(
                toy_design,
                [{"kind": "resize", "instance": "u99", "master": "INV_X2"}],
            )

    def test_illegal_swap_named(self, toy_design):
        with pytest.raises(EcoError, match="edit #0"):
            _apply(
                toy_design,
                [{"kind": "swap", "instance": "u2", "master": "INV_X2"}],
            )


class TestRemove:
    def test_remove_maps_and_touches_neighbours(self, toy_design):
        u1 = toy_design.instance("u1")
        old_index = u1.index
        n = toy_design.num_instances
        neighbours = {
            other.name
            for net in u1.pin_nets.values()
            for other in net.instances()
            if other is not u1
        }
        impact = _apply(toy_design, [{"kind": "remove", "instance": "u1"}])
        assert toy_design.num_instances == n - 1
        assert impact.removed_instances == [old_index]
        assert impact.instance_map[old_index] == -1
        assert impact.topology_changed
        touched_names = {
            toy_design.instances[i].name for i in impact.touched_instances
        }
        assert neighbours <= touched_names

    def test_degenerate_net_dropped(self, toy_design):
        """Removing the only driver of a net drops the net and marks
        its surviving sinks touched."""
        # u1 drives n1 (sink: u2.A).  Removing u1 leaves n1 driverless.
        impact = _apply(toy_design, [{"kind": "remove", "instance": "u1"}])
        assert "n1" in impact.removed_nets
        assert not any(
            net.name == "n1" for net in toy_design.nets
        )
        u2 = toy_design.instance("u2")
        assert "A" not in u2.pin_nets
        assert u2.index in impact.touched_instances


class TestAdd:
    def test_add_with_connections(self, toy_design):
        toy_design.add_master(make_library()["BUF_X1"])
        impact = _apply(
            toy_design,
            [
                {
                    "kind": "add",
                    "instance": "u_buf",
                    "master": "BUF_X1",
                    "connections": {"A": "n1", "Y": "n_buf_out"},
                    "x": 5.0,
                    "y": 6.0,
                }
            ],
        )
        buf = toy_design.instance("u_buf")
        assert buf.x == 5.0 and buf.y == 6.0
        assert impact.added_instances == [buf.index]
        assert impact.positioned_instances == {buf.index}
        assert buf.pin_nets["A"].name == "n1"
        # The output net did not exist and was created.
        assert toy_design.net("n_buf_out").driver.instance is buf
        assert impact.topology_changed

    def test_add_without_coordinates_not_positioned(self, toy_design):
        toy_design.add_master(make_library()["BUF_X1"])
        impact = _apply(
            toy_design,
            [
                {
                    "kind": "add",
                    "instance": "u_buf",
                    "master": "BUF_X1",
                    "connections": {"A": "n1", "Y": "n_buf_out"},
                }
            ],
        )
        assert impact.positioned_instances == set()
        assert len(impact.added_instances) == 1

    def test_duplicate_name_rejected(self, toy_design):
        toy_design.add_master(make_library()["BUF_X1"])
        with pytest.raises(EcoError, match="already exists"):
            _apply(
                toy_design,
                [{"kind": "add", "instance": "u1", "master": "BUF_X1"}],
            )

    def test_unknown_pin_named(self, toy_design):
        toy_design.add_master(make_library()["BUF_X1"])
        with pytest.raises(EcoError, match="has no pin 'Q'"):
            _apply(
                toy_design,
                [
                    {
                        "kind": "add",
                        "instance": "u_buf",
                        "master": "BUF_X1",
                        "connections": {"Q": "n1"},
                    }
                ],
            )


class TestReconnect:
    def test_reconnect_touches_both_nets(self, toy_design):
        u2 = toy_design.instance("u2")
        old = u2.pin_nets["B"]
        impact = _apply(
            toy_design,
            [
                {
                    "kind": "reconnect",
                    "instance": "u2",
                    "pin": "B",
                    "net": "n_in0",
                }
            ],
        )
        assert u2.pin_nets["B"].name == "n_in0"
        touched_names = {
            toy_design.nets[i].name
            for i in impact.touched_nets
            if 0 <= i < toy_design.num_nets
        }
        assert "n_in0" in touched_names
        # The vacated net kept its port pin, so it survives; had it
        # gone degenerate it would appear in removed_nets instead.
        assert old.name in touched_names or old.name in impact.removed_nets
        assert impact.topology_changed

    def test_reconnect_creates_missing_net(self, toy_design):
        """Moving a *driver* pin onto a fresh net creates the net; the
        vacated net (now driverless with a sink) is dropped."""
        impact = _apply(
            toy_design,
            [
                {
                    "kind": "reconnect",
                    "instance": "u2",
                    "pin": "Y",
                    "net": "n_fresh",
                }
            ],
        )
        u2 = toy_design.instance("u2")
        assert u2.pin_nets["Y"].name == "n_fresh"
        assert toy_design.net("n_fresh").driver.instance is u2
        assert "n2" in impact.removed_nets

    def test_reconnect_sink_to_driverless_net_drops_it(self, toy_design):
        """An input pin moved to a net that never gains a driver is a
        degenerate edit: the net is dropped and the pin left open."""
        impact = _apply(
            toy_design,
            [
                {
                    "kind": "reconnect",
                    "instance": "u2",
                    "pin": "B",
                    "net": "n_fresh",
                }
            ],
        )
        assert "n_fresh" in impact.removed_nets
        assert "B" not in toy_design.instance("u2").pin_nets


class TestScripts:
    def test_mixed_script_instance_map(self, toy_design):
        """A script mixing removal and addition keeps the old -> new
        map consistent for every surviving instance."""
        toy_design.add_master(make_library()["BUF_X1"])
        names_before = [inst.name for inst in toy_design.instances]
        impact = _apply(
            toy_design,
            [
                {"kind": "remove", "instance": "u1"},
                {
                    "kind": "add",
                    "instance": "u_new",
                    "master": "BUF_X1",
                    "connections": {"A": "n_in0", "Y": "n_new"},
                },
            ],
        )
        for old_idx, name in enumerate(names_before):
            new_idx = impact.instance_map[old_idx]
            if name == "u1":
                assert new_idx == -1
            else:
                assert toy_design.instances[new_idx].name == name

    def test_add_then_remove_same_instance(self, toy_design):
        toy_design.add_master(make_library()["BUF_X1"])
        impact = _apply(
            toy_design,
            [
                {
                    "kind": "add",
                    "instance": "u_tmp",
                    "master": "BUF_X1",
                    "connections": {"A": "n1", "Y": "n_tmp"},
                },
                {"kind": "remove", "instance": "u_tmp"},
            ],
        )
        assert not toy_design.has_instance("u_tmp")
        assert impact.added_instances == []
        # A never-before-seen instance leaves no pre-edit index behind.
        assert impact.removed_instances == []
        toy_design.validate()


class TestHpwlAfterEdits:
    """``repro.place.hpwl.hpwl`` memoises per-pin arrays; edit patterns
    that keep every entity count (reconnect; add + remove in one
    script) used to leave the memo stale."""

    @staticmethod
    def _check(design):
        from repro.place.hpwl import hpwl, net_hpwl

        walk = sum(
            net_hpwl(design, net)
            for net in design.nets
            if not net.is_clock and net.degree >= 2
        )
        assert hpwl(design.arrays()) == pytest.approx(walk, rel=1e-12)

    def test_reconnect(self, toy_design):
        self._check(toy_design)  # fills the memo
        toy_design.instance("u2").x = 19.0
        _apply(
            toy_design,
            [{"kind": "reconnect", "instance": "u2", "pin": "B", "net": "n_in0"}],
        )
        self._check(toy_design)

    def test_add_and_remove_in_one_script(self, toy_design):
        toy_design.add_master(make_library()["BUF_X1"])
        self._check(toy_design)
        _apply(
            toy_design,
            [
                {
                    "kind": "add",
                    "instance": "u_buf",
                    "master": "BUF_X1",
                    "connections": {"A": "n1", "Y": "n_buf_out"},
                    "x": 19.0,
                    "y": 1.0,
                },
                {"kind": "remove", "instance": "u3"},
            ],
        )
        self._check(toy_design)
