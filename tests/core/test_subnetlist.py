"""A cluster's sub-netlist is induced from the flat form.

* On generated designs (ports, fixed macros, clock nets), on
  snapshot-decoded ones and after spine-style ECO scripts (resize, swap,
  add, remove), ``extract_subnetlist`` equals the object walk it
  replaced (``tests/netlist/reference.py``): every flat column with its
  dtype, every name, the content digest, the cell area and so the cache
  key — the sub digests and cache keys the walk gave.
* A sub depends on the netlist alone: after reconnects, and after adds
  whose earlier-named pin lands on the higher-index net, every
  cluster's sub, digest and cache key equal those of the same cluster
  of the design decoded from its own snapshot.  The walk took nets, and
  numbered ports, in ``Instance.pin_nets`` insertion order, which those
  edits reorder; the induce takes them in (member, net index) order.
* ``netlist_digest`` of a whole design equals the walk's.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import cache_key, netlist_digest
from repro.core.subnetlist import extract_subnetlist
from repro.core.vpr import VPRConfig, VPRFramework
from repro.designs import DesignSpec, generate_design
from repro.eco import apply_edits, parse_edits
from repro.netlist.design import PinDirection
from repro.netlist.snapshot import design_from_snapshot, design_snapshot
from tests.netlist.reference import (
    extract_subnetlist_reference,
    netlist_digest_reference,
)
from tests.sta.test_eco_properties import KINDS, _draw_edit

CONFIG = VPRConfig()


def _design(seed=3, instances=200, macros=2):
    return generate_design(
        DesignSpec(
            "subnet",
            instances,
            clock_period=0.7,
            logic_depth=6,
            hierarchy_depth=2,
            hierarchy_branching=3,
            num_macros=macros,
            seed=seed,
        )
    )


def _clusters(design, rng, count):
    """Members of each non-empty cluster of a random clustering, plus
    the whole design and one singleton."""
    cluster_of = rng.integers(0, count, design.num_instances)
    groups = [np.flatnonzero(cluster_of == c).tolist() for c in range(count)]
    groups.append(list(range(design.num_instances)))
    groups.append([int(rng.integers(design.num_instances))])
    return [g for g in groups if g]


def _flat(design):
    snapshot = design_snapshot(design)
    return snapshot["header"], snapshot["columns"]


def _assert_same_sub(got, want):
    """Equal flat forms: header (names, pool, floorplan) and every
    column, value and dtype."""
    (got_header, got_columns), (want_header, want_columns) = _flat(got), _flat(want)
    assert got_header == want_header
    assert got_columns.keys() == want_columns.keys()
    for name, column in got_columns.items():
        other = want_columns[name]
        assert column.dtype == other.dtype and np.array_equal(column, other), name


def _cache_keys(design, members):
    digest, cell_area = VPRFramework(CONFIG).cluster_digest(design, members)
    return [cache_key(digest, c, CONFIG, cell_area=cell_area) for c in CONFIG.candidates]


def _assert_equals_walk(design, members):
    got = extract_subnetlist(design, members)
    want = extract_subnetlist_reference(design, members)
    _assert_same_sub(got, want)
    digest = netlist_digest_reference(want)
    assert netlist_digest(got) == netlist_digest_reference(got) == digest
    cell_area = sum(design.instances[i].area for i in members)
    assert _cache_keys(design, members) == [
        cache_key(digest, c, CONFIG, cell_area=cell_area) for c in CONFIG.candidates
    ]


class TestInduceEqualsWalk:
    def test_generated_designs(self):
        for seed in range(3):
            design = _design(seed=seed)
            assert design.ports and any(i.fixed for i in design.macro_instances())
            assert any(net.is_clock for net in design.nets)
            rng = np.random.default_rng(seed)
            for members in _clusters(design, rng, int(rng.integers(2, 9))):
                _assert_equals_walk(design, members)

    def test_snapshot_decoded_designs(self):
        for seed in range(2):
            design = design_from_snapshot(design_snapshot(_design(seed=seed)))
            rng = np.random.default_rng(seed)
            for members in _clusters(design, rng, 5):
                _assert_equals_walk(design, members)

    def test_members_in_any_order(self):
        design = _design(seed=1, instances=120, macros=0)
        members = list(range(0, 120, 3))
        _assert_same_sub(
            extract_subnetlist(design, members[::-1] + members[:4]),
            extract_subnetlist_reference(design, members),
        )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_spine_style_eco_scripts(self, data):
        """The spine's kinds: resize, swap, add (pin ``A`` on an
        existing net, then ``Y`` on a new one) and remove."""
        design = _design(seed=data.draw(st.integers(0, 3)), instances=120)
        spine_kinds = [k for k in KINDS if k != "reconnect"]
        kinds = data.draw(st.lists(st.sampled_from(spine_kinds), min_size=1, max_size=5))
        for serial, kind in enumerate(kinds):
            edit = _draw_edit(data, design, kind, serial)
            if edit is not None:
                apply_edits(design, parse_edits([edit]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        for members in _clusters(design, rng, data.draw(st.integers(1, 6))):
            _assert_equals_walk(design, members)


# ----------------------------------------------------------------------
# A sub ignores the design's edit history
# ----------------------------------------------------------------------
def _assert_history_free(design, groups):
    decoded = design_from_snapshot(design_snapshot(design))
    for members in groups:
        sub = extract_subnetlist(design, members)
        fresh = extract_subnetlist(decoded, members)
        _assert_same_sub(sub, fresh)
        assert netlist_digest(sub) == netlist_digest(fresh)
        assert _cache_keys(design, members) == _cache_keys(decoded, members)


def test_reconnect_does_not_rekey_the_sub(small_design_fresh):
    """Moving a pin of the first member onto a lower-index net puts that
    net last in its ``pin_nets``; the sub is the decoded design's."""
    design = small_design_fresh
    members = list(range(150))
    first = design.instances[members[0]]
    mine = {net.index for net in first.pin_nets.values()}
    pin = next(
        name
        for name, net in first.pin_nets.items()
        if not net.is_clock
        and first.master.pins[name].direction is PinDirection.INPUT
    )
    target = next(
        net for net in design.nets if not net.is_clock and net.index not in mine
    )
    assert target.index < max(mine)
    design.reconnect_pin(first, pin, target)
    assert list(first.pin_nets)[-1] == pin  # moved to the end

    # The walk's order is the edit order; the induce's is not.
    walked = [net.name for net in extract_subnetlist_reference(design, members).nets]
    induced = [net.name for net in extract_subnetlist(design, members).nets]
    assert walked != induced and sorted(walked) == sorted(induced)
    _assert_history_free(design, [members])


def _draw_history_edit(data, design, kind, serial):
    """A spine-kind edit, a reconnect, or an add whose pin ``A`` lands on
    a higher-index net than pin ``B`` (pins connect in name order)."""
    if kind != "add_reordered":
        return _draw_edit(data, design, kind, serial)
    driven = [
        net
        for net in design.nets
        if not net.is_clock and net.driver is not None and net.degree >= 2
    ]
    pair = data.draw(st.lists(st.sampled_from(driven), min_size=2, max_size=2, unique=True))
    low, high = sorted(pair, key=lambda net: net.index)
    return {
        "kind": "add",
        "instance": f"u_hist_eco_{serial}",
        "master": "NAND2_X1",
        "connections": {"A": high.name, "B": low.name, "Y": f"n_hist_eco_{serial}"},
    }


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_sub_ignores_edit_history(data):
    design = _design(seed=data.draw(st.integers(0, 3)), instances=120)
    kinds = data.draw(
        st.lists(
            st.sampled_from(KINDS + ("add_reordered",)), min_size=1, max_size=6
        )
    )
    for serial, kind in enumerate(kinds):
        edit = _draw_history_edit(data, design, kind, serial)
        if edit is not None:
            apply_edits(design, parse_edits([edit]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    _assert_history_free(design, _clusters(design, rng, data.draw(st.integers(1, 6))))


# ----------------------------------------------------------------------
# Whole-design digests
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_whole_design_digest_equals_walk(data):
    design = _design(seed=data.draw(st.integers(0, 3)), instances=120)
    assert netlist_digest(design) == netlist_digest_reference(design)
    kinds = data.draw(st.lists(st.sampled_from(KINDS), max_size=4))
    for serial, kind in enumerate(kinds):
        edit = _draw_edit(data, design, kind, serial)
        if edit is not None:
            apply_edits(design, parse_edits([edit]))
    for net in design.nets[::7]:
        net.weight *= 1.5  # live weights, not the flattened ones
    digest = netlist_digest(design)
    assert digest == netlist_digest_reference(design)
    assert netlist_digest(design_from_snapshot(design_snapshot(design))) == digest


def test_induce_memo_follows_an_edit_of_the_source():
    """``VPRFramework.induce`` memoises per source and member tuple; a
    ``replace_master`` of one member must re-key it, so the second
    induce returns the sub a fresh extraction gives (a memo keyed on
    the source's identity alone returned the pre-edit sub)."""
    design = _design(seed=11, instances=300, macros=0)
    members = list(range(100))
    framework = VPRFramework(CONFIG)
    before, area_before = framework.induce(design, members)
    inst = next(
        design.instances[i]
        for i in members
        if design.instances[i].master.name == "INV_X1"
    )
    design.replace_master(inst, design.masters["INV_X2"])
    after, area_after = framework.induce(design, members)
    fresh = extract_subnetlist(design, members)
    assert netlist_digest(after) == netlist_digest(fresh)
    assert netlist_digest(after) != netlist_digest(before)
    assert area_after == sum(design.instances[i].area for i in members) != area_before
    assert framework.induce(design, members)[0] is after
