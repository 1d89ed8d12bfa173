"""High-fanout net buffering (repeater insertion).

Nets whose driver sees more than ``max_load`` fF are split by a
buffer tree: sinks are grouped geometrically (k-means-style around
sink medians), each group is re-driven by an inserted buffer placed at
the group's centroid, recursively until every driver's load is within
budget.  This materialises the buffer trees the STA otherwise models
virtually (:func:`repro.sta.delay.effective_cell_delay`), and is the
role OpenROAD's resizer / Innovus optDesign play in the paper's flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.netlist.design import Design, Net, PinRef
from repro.sta.delay import BUFFERED_LOAD_FF, PlacementWireModel, WireDelayModel

#: Buffer master used for insertion.
BUFFER_MASTER = "BUF_X4"

#: Safety bound on recursion depth per net.
MAX_LEVELS = 6


@dataclass
class BufferingResult:
    """Outcome of the buffering pass.

    Attributes:
        buffers_inserted: Number of buffer instances added.
        nets_buffered: Number of original nets that needed buffering.
        max_fanout_before: Largest signal-net fanout before the pass.
        max_fanout_after: Largest signal-net fanout after the pass.
    """

    buffers_inserted: int
    nets_buffered: int
    max_fanout_before: int
    max_fanout_after: int


def _sink_location(design: Design, ref: PinRef) -> Tuple[float, float]:
    if ref.instance is not None:
        return ref.instance.x, ref.instance.y
    port = design.ports[ref.pin_name]
    return port.x, port.y


def _split_sinks(
    design: Design, sinks: Sequence[PinRef], groups: int
) -> List[List[PinRef]]:
    """Split sinks into ``groups`` geometric clusters by sorting along
    the longer spread axis (median cuts — deterministic and cheap)."""
    if groups <= 1 or len(sinks) <= 1:
        return [list(sinks)]
    points = [_sink_location(design, s) for s in sinks]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    axis = 0 if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else 1
    order = sorted(range(len(sinks)), key=lambda i: points[i][axis])
    half = len(order) // 2
    left = [sinks[i] for i in order[:half]]
    right = [sinks[i] for i in order[half:]]
    out = []
    for part in (left, right):
        out.extend(_split_sinks(design, part, groups // 2))
    return [g for g in out if g]


def _sink_load(design: Design, sinks: Sequence[PinRef]) -> float:
    return sum(ref.capacitance(design) for ref in sinks)


def net_load(design: Design, wire_model: WireDelayModel, net: Net) -> float:
    """Driver load of one net under a placement wire model: sink pin
    caps plus ``c_per_um`` times the net's HPWL (fF).

    One net at a time, on the live object graph, because the studies
    read a net's load while they rewire and resize around it.
    """
    if type(wire_model) is not PlacementWireModel:
        raise TypeError(f"the studies take a PlacementWireModel, not {type(wire_model).__name__}")
    points = [_sink_location(design, ref) for ref in net.pins()]
    wirelength = 0.0
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        wirelength = (max(xs) - min(xs)) + (max(ys) - min(ys))
    return _sink_load(design, net.sinks) + wire_model.c_per_um * wirelength


def buffer_high_fanout_nets(
    design: Design,
    wire_model: WireDelayModel,
    max_load: float = BUFFERED_LOAD_FF,
    buffer_master: str = BUFFER_MASTER,
) -> BufferingResult:
    """Insert buffers so no signal driver sees more than ``max_load``.

    Buffers are placed at sink-group centroids and named
    ``<net>_buf<k>``; the design remains structurally valid (one driver
    per net) and the timing graph must be rebuilt afterwards.
    """
    master = design.masters.get(buffer_master)
    if master is None:
        # Fall back to any buffer in the design's library.
        candidates = [
            m
            for name, m in sorted(design.masters.items())
            if m.cell_class == "buf"
        ]
        master = candidates[-1] if candidates else None

    before = max(
        (n.fanout for n in design.nets if not n.is_clock), default=0
    )
    buffers = 0
    nets_buffered = 0
    counter = 0

    # Snapshot: inserted nets must not be revisited within the pass
    # (their loads are within budget by construction).
    original_nets = [
        n for n in design.nets if not n.is_clock and n.driver is not None
    ]
    for net in original_nets:
        if net_load(design, wire_model, net) <= max_load:
            continue
        if master is None:
            raise KeyError(
                f"no buffer master available (wanted {buffer_master!r})"
            )
        nets_buffered += 1
        level = 0
        frontier = net
        while (
            net_load(design, wire_model, frontier) > max_load and level < MAX_LEVELS
        ):
            level += 1
            sinks = list(frontier.sinks)
            # Number of groups so each group's pin load fits the
            # budget, leaving headroom for wire capacitance.
            groups = 2
            while (
                _sink_load(design, sinks) / groups > 0.5 * max_load
                and groups < len(sinks)
            ):
                groups *= 2
            groups = min(groups, max(2, len(sinks)))
            partitions = _split_sinks(design, sinks, groups)
            if len(partitions) < 2:
                break
            # Rewire: frontier keeps the buffers as its only sinks.
            frontier.sinks = []
            for part in partitions:
                if not part:
                    continue
                counter += 1
                buffers += 1
                name = f"{net.name}_buf{counter}"
                buf = design.add_instance(name, master)
                points = [_sink_location(design, s) for s in part]
                buf.x = sum(p[0] for p in points) / len(points)
                buf.y = sum(p[1] for p in points) / len(points)
                frontier.sinks.append(PinRef(buf, "A"))
                buf.pin_nets["A"] = frontier
                new_net = design.add_net(f"{name}_out")
                design.connect_instance_pin(new_net, buf, "Y")
                for sink in part:
                    new_net.sinks.append(sink)
                    if sink.instance is not None:
                        sink.instance.pin_nets[sink.pin_name] = new_net
            # Recurse into the worst child if still over budget: the
            # while loop re-checks the frontier (driver side) only; the
            # children are within budget by the group sizing above
            # unless wire cap dominates, handled by the next pass.

    after = max(
        (n.fanout for n in design.nets if not n.is_clock), default=0
    )
    return BufferingResult(
        buffers_inserted=buffers,
        nets_buffered=nets_buffered,
        max_fanout_before=before,
        max_fanout_after=after,
    )
