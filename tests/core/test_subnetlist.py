"""Characterization: the order :func:`extract_subnetlist` walks nets in.

The sub-netlist's nets, and the numbers of its ``vin{k}`` / ``vout{k}``
ports, follow each member's ``Instance.pin_nets`` insertion order,
members ascending.  On a generated or snapshot-decoded design that is
ascending net index; an ECO ``reconnect_pin`` moves the pin to the end
of its instance's ``pin_nets``, so on an ECO-edited design the two
orders differ, and an array-native extraction that walks
``NetlistArrays`` in net-index order would number ports differently.
"""

from repro.core.subnetlist import extract_subnetlist
from repro.netlist.design import PinDirection


def _first_seen(design, members, key=None):
    """Source net names in walk order: each member's non-clock nets,
    in ``pin_nets`` order or sorted by ``key``, first occurrence only."""
    seen, order = set(), []
    for idx in sorted(members):
        nets = list(design.instances[idx].pin_nets.values())
        if key is not None:
            nets.sort(key=key)
        for net in nets:
            if not net.is_clock and net.name not in seen:
                seen.add(net.name)
                order.append(net.name)
    return order


def test_walk_follows_pin_nets_not_net_index(small_design_fresh):
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

    sub = extract_subnetlist(design, members)
    kept = [net.name for net in sub.nets]
    in_walk = _first_seen(design, members)
    by_index = _first_seen(design, members, key=lambda net: net.index)
    assert kept == [name for name in in_walk if name in set(kept)]
    # The reconnect is visible: the net-index order is a different one.
    assert kept != [name for name in by_index if name in set(kept)]
    # Ports are numbered along the same walk.
    numbers = [
        int(ref.pin_name.removeprefix("vin").removeprefix("vout"))
        for net in sub.nets
        for ref in net.pins()
        if ref.is_port
    ]
    assert numbers == sorted(numbers) == list(range(len(sub.ports)))
