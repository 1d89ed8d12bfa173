"""Flat, pickle-friendly snapshots of a :class:`Design`.

The in-memory netlist is a deeply linked object graph (net -> pin ref
-> instance -> pin_nets -> net ...), so pickling a :class:`Design`
directly recurses to the connectivity diameter of the netlist and blows
the interpreter's recursion limit on real designs.  A snapshot is the
same information as flat lists of primitives — masters, instances in
index order, ports, and nets as ``(instance index, pin name)`` tuples —
which pickles in constant stack depth and rebuilds through the normal
construction API.

Used by the V-P&R fleet fan-out (:mod:`repro.core.fanout`): the parent
snapshots each induced sub-netlist once into the payload it ships and
every fleet worker rebuilds it once.  Reconstruction is exact for
everything evaluation reads: structure, names, directions, weights,
master timing/power data, coordinates and the floorplan — so content
digests (:func:`repro.cache.netlist_digest`) of a rebuilt design equal
the original's.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.netlist.design import (
    CellPin,
    Design,
    Floorplan,
    MasterCell,
    PinDirection,
    PinRef,
)


def design_snapshot(design: Design) -> Dict[str, Any]:
    """The flat form of a design (see module docstring)."""
    masters = {}
    for name, m in design.masters.items():
        masters[name] = {
            "width": m.width,
            "height": m.height,
            "pins": [
                (p.name, p.direction.value, p.capacitance, p.is_clock)
                for p in m.pins.values()
            ],
            "is_sequential": m.is_sequential,
            "is_macro": m.is_macro,
            "intrinsic_delay": m.intrinsic_delay,
            "drive_resistance": m.drive_resistance,
            "clk_to_q": m.clk_to_q,
            "setup_time": m.setup_time,
            "hold_time": m.hold_time,
            "leakage_power": m.leakage_power,
            "internal_energy": m.internal_energy,
            "cell_class": m.cell_class,
        }

    def _ref(ref: PinRef):
        if ref.instance is not None:
            return (ref.instance.index, ref.pin_name)
        return (-1, ref.pin_name)

    fp = design.floorplan
    return {
        "name": design.name,
        "clock_period": design.clock_period,
        "clock_port": design.clock_port,
        "floorplan": (
            fp.die_width,
            fp.die_height,
            fp.core_margin,
            fp.row_height,
            fp.target_utilization,
        ),
        "masters": masters,
        "instances": [
            (i.name, i.master.name, i.x, i.y, i.fixed)
            for i in design.instances
        ],
        "ports": [
            (p.name, p.direction.value, p.x, p.y, p.capacitance)
            for p in design.ports.values()
        ],
        "nets": [
            (
                net.name,
                net.weight,
                net.is_clock,
                net.switching_activity,
                _ref(net.driver) if net.driver is not None else None,
                [_ref(ref) for ref in net.sinks],
            )
            for net in design.nets
        ],
    }


def design_from_snapshot(payload: Dict[str, Any]) -> Design:
    """Rebuild a design from its flat form."""
    design = Design(payload["name"], floorplan=Floorplan(*payload["floorplan"]))
    design.clock_period = payload["clock_period"]
    design.clock_port = payload["clock_port"]
    for name, m in payload["masters"].items():
        design.add_master(
            MasterCell(
                name=name,
                width=m["width"],
                height=m["height"],
                pins={
                    pin_name: CellPin(
                        pin_name, PinDirection(direction), capacitance, is_clock
                    )
                    for pin_name, direction, capacitance, is_clock in m["pins"]
                },
                is_sequential=m["is_sequential"],
                is_macro=m["is_macro"],
                intrinsic_delay=m["intrinsic_delay"],
                drive_resistance=m["drive_resistance"],
                clk_to_q=m["clk_to_q"],
                setup_time=m["setup_time"],
                hold_time=m["hold_time"],
                leakage_power=m["leakage_power"],
                internal_energy=m["internal_energy"],
                cell_class=m["cell_class"],
            )
        )
    for name, master_name, x, y, fixed in payload["instances"]:
        inst = design.add_instance(name, design.masters[master_name])
        inst.x, inst.y, inst.fixed = x, y, fixed
    for name, direction, x, y, capacitance in payload["ports"]:
        port = design.add_port(name, PinDirection(direction), x, y)
        port.capacitance = capacitance

    def _ref(entry) -> PinRef:
        index, pin_name = entry
        if index < 0:
            return PinRef(None, pin_name)
        return PinRef(design.instances[index], pin_name)

    for name, weight, is_clock, activity, driver, sinks in payload["nets"]:
        net = design.add_net(name)
        net.weight = weight
        net.is_clock = is_clock
        net.switching_activity = activity
        # Connect through the direction classifier so driver/sink roles
        # are re-derived exactly as construction derived them; sink
        # order is preserved by connecting in stored order.
        if driver is not None:
            design.connect(net, _ref(driver))
        for entry in sinks:
            design.connect(net, _ref(entry))
    return design
