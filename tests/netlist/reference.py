"""The object-graph walks the array-native netlist core replaced, kept
as the tests' oracle.

``Hypergraph.from_netlist`` and ``PlacementProblem`` build from the
``NetlistArrays`` CSR kernels; until the ``use_arrays`` flag was deleted
each also carried the per-net / per-instance Python walk below.  The
bodies are verbatim, made standalone (the placement walk returns its
arrays by name instead of filling a ``PlacementProblem``) and must
agree with the array builders bit for bit.

``snapshot_reference`` / ``design_from_reference`` are the second flat
form ``repro.netlist.snapshot`` used to be — a dict of tuples walked off
the object graph and rebuilt through the construction API — before a
snapshot became the ``NetlistArrays`` columns.  Two designs are the same
design when their reference snapshots are equal; the scoring walk
``_SubContext`` carried is ``score_arrays_reference``.

``clique_expansion_reference`` is the per-edge double loop into a dict
``Hypergraph.clique_expansion`` ran before it emitted pair index arrays.

``extract_subnetlist_reference`` and ``netlist_digest_reference`` are
the sub-netlist induce and its content digest as they walked the
``Instance`` / ``Net`` / ``PinRef`` objects, before the sub was induced
from ``NetlistArrays`` and digested off its columns.  The walk takes a
sub's nets, and numbers its ports, in each member's ``pin_nets``
insertion order; ``NetlistArrays.induce`` takes them in (member, net
index) order.  The two agree on generated and snapshot-decoded designs
and after the spine's resize / swap / add / remove edits, not after a
reconnect or an add whose earlier-named pin lands on the higher-index
net.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.design import (
    CellPin,
    Design,
    Floorplan,
    MasterCell,
    PinDirection,
    PinRef,
)
from repro.ioutil import sha256_hex
from repro.netlist.hypergraph import Hypergraph


def hypergraph_reference(
    design: Design,
    include_clock_nets: bool = False,
    max_edge_degree: Optional[int] = None,
) -> Hypergraph:
    """One hyperedge per net, gathered by walking the net's pin objects."""
    edges: List[Tuple[int, ...]] = []
    weights: List[float] = []
    net_indices: List[int] = []
    for net in design.nets:
        if net.is_clock and not include_clock_nets:
            continue
        vertex_ids = sorted({inst.index for inst in net.instances()})
        if len(vertex_ids) < 2:
            continue
        if max_edge_degree is not None and len(vertex_ids) > max_edge_degree:
            continue
        edges.append(tuple(vertex_ids))
        weights.append(net.weight)
        net_indices.append(net.index)
    areas = [inst.area for inst in design.instances]
    return Hypergraph(
        design.num_instances,
        edges,
        edge_weights=weights,
        vertex_areas=areas,
        edge_net_indices=net_indices,
    )


def placement_problem_reference(
    design: Design, include_clock: bool = False
) -> Dict[str, np.ndarray]:
    """``PlacementProblem``'s arrays by attribute name, from the object graph.

    Vertex order is the problem's: instances by index, then ports in
    sorted name order.
    """
    n_inst = design.num_instances
    port_vertex = {name: n_inst + i for i, name in enumerate(sorted(design.ports))}
    n_total = n_inst + len(port_vertex)
    x = np.zeros(n_total)
    y = np.zeros(n_total)
    areas = np.zeros(n_total)
    fixed = np.zeros(n_total, dtype=bool)
    for inst in design.instances:
        x[inst.index] = inst.x
        y[inst.index] = inst.y
        areas[inst.index] = inst.area
        fixed[inst.index] = inst.fixed
    for name, vid in port_vertex.items():
        port = design.ports[name]
        x[vid] = port.x
        y[vid] = port.y
        fixed[vid] = True

    pins: List[int] = []
    offsets: List[int] = [0]
    weights: List[float] = []
    net_indices: List[int] = []
    for net in design.nets:
        if net.is_clock and not include_clock:
            continue
        vertex_ids = set()
        for ref in net.pins():
            if ref.instance is not None:
                vertex_ids.add(ref.instance.index)
            else:
                vertex_ids.add(port_vertex[ref.pin_name])
        if len(vertex_ids) < 2:
            continue
        pins.extend(sorted(vertex_ids))
        offsets.append(len(pins))
        weights.append(net.weight)
        net_indices.append(net.index)

    return {
        "x": x,
        "y": y,
        "areas": areas,
        "fixed": fixed,
        "pin_vertex": np.asarray(pins, dtype=np.int64),
        "net_offsets": np.asarray(offsets, dtype=np.int64),
        "net_weights": np.asarray(weights),
        "net_indices": np.asarray(net_indices, dtype=np.int64),
    }


def score_arrays_reference(sub: Design) -> Tuple[np.ndarray, np.ndarray]:
    """``(score_pins, score_offsets)`` as the V-P&R scoring walk built
    them: per-pin vertex ids over every net with >= 2 pins (duplicate
    same-instance pins kept), instances then sorted ports."""
    port_vertex = {
        name: sub.num_instances + i for i, name in enumerate(sorted(sub.ports))
    }
    pins: List[int] = []
    offsets: List[int] = [0]
    for net in sub.nets:
        if net.degree < 2:
            continue
        for ref in net.pins():
            if ref.instance is not None:
                pins.append(ref.instance.index)
            else:
                pins.append(port_vertex[ref.pin_name])
        offsets.append(len(pins))
    return np.asarray(pins, dtype=np.int64), np.asarray(offsets, dtype=np.int64)


def snapshot_reference(design: Design) -> Dict[str, Any]:
    """The dict-of-tuples form: every master, instance, port and net as
    primitives, read off the object graph pin by pin."""
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
        "input_activity": design.input_activity,
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
                _ref(net.driver) if net.driver is not None else None,
                [_ref(ref) for ref in net.sinks],
            )
            for net in design.nets
        ],
    }


def design_from_reference(payload: Dict[str, Any]) -> Design:
    """Rebuild a design from :func:`snapshot_reference` through the
    construction API (``add_instance`` / ``connect``)."""
    design = Design(payload["name"], floorplan=Floorplan(*payload["floorplan"]))
    design.clock_period = payload["clock_period"]
    design.clock_port = payload["clock_port"]
    design.input_activity = payload["input_activity"]
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

    for name, weight, is_clock, driver, sinks in payload["nets"]:
        net = design.add_net(name)
        net.weight = weight
        net.is_clock = is_clock
        # Connect through the direction classifier so driver/sink roles
        # are re-derived exactly as construction derived them; sink
        # order is preserved by connecting in stored order.
        if driver is not None:
            design.connect(net, _ref(driver))
        for entry in sinks:
            design.connect(net, _ref(entry))
    return design


def clique_expansion_reference(
    hgraph: Hypergraph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clique expansion by a double loop over every edge's members,
    parallel pairs summed into a dict in edge order."""
    pair_weights: Dict[Tuple[int, int], float] = {}
    for ei, edge in enumerate(hgraph.edges):
        k = len(edge)
        if k < 2:
            continue
        w = hgraph.edge_weights[ei] / (k - 1)
        for a in range(k):
            for b in range(a + 1, k):
                u, v = edge[a], edge[b]
                key = (u, v) if u < v else (v, u)
                pair_weights[key] = pair_weights.get(key, 0.0) + w
    if not pair_weights:
        empty = np.zeros(0)
        return empty.astype(np.int64), empty.astype(np.int64), empty
    keys = sorted(pair_weights)
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    weights = np.array([pair_weights[k] for k in keys])
    return rows, cols, weights


def clustered_netlist_reference(
    source: Design,
    cluster_of,
    shapes=None,
    io_net_weight: float = 1.0,
    net_weight_multipliers: Optional[np.ndarray] = None,
):
    """``build_clustered_netlist`` as it walked the source's ``Net`` /
    ``PinRef`` objects and built through the construction API.

    The multipliers are the ``(num_nets,)`` array the flow now passes
    (the walk took a net-index dict; a missing entry was 1.0).
    """
    from repro.core.clustered_netlist import ClusteredNetlist
    from repro.core.shapes import uniform_shape
    from repro.netlist.lef import ClusterLef

    cluster_of = np.asarray(cluster_of, dtype=np.int64)
    shapes = dict(shapes or {})
    k = int(cluster_of.max()) + 1 if len(cluster_of) else 0

    members: List[List[int]] = [[] for _ in range(k)]
    for v, c in enumerate(cluster_of):
        members[int(c)].append(v)
    areas = np.zeros(k)
    for c, member_list in enumerate(members):
        areas[c] = sum(source.instances[v].area for v in member_list)

    clustered = Design(f"{source.name}_clustered", floorplan=source.floorplan)
    clustered.clock_period = source.clock_period
    lef = ClusterLef()

    default = uniform_shape()
    cluster_insts = []
    for c in range(k):
        shape = shapes.get(c, default)
        shapes.setdefault(c, shape)
        macro = lef.add_cluster(c, max(areas[c], 1e-6), shape.aspect_ratio, shape.utilization)
        master = MasterCell(
            name=f"CLUSTER_{c}",
            width=macro.width,
            height=macro.height,
            is_macro=True,
            cell_class="macro",
        )
        clustered.add_master(master)
        inst = clustered.add_instance(f"cluster_{c}", master)
        fixed_members = [
            source.instances[v] for v in members[c] if source.instances[v].fixed
        ]
        if fixed_members:
            inst.x = float(np.mean([m.x for m in fixed_members]))
            inst.y = float(np.mean([m.y for m in fixed_members]))
            inst.fixed = True
        cluster_insts.append(inst)

    for name, port in source.ports.items():
        new_port = clustered.add_port(name, port.direction, port.x, port.y)
        new_port.capacitance = port.capacitance

    pin_counter: Dict[int, int] = {c: 0 for c in range(k)}
    for net in source.nets:
        if net.is_clock:
            continue
        clusters_touched = sorted({int(cluster_of[i.index]) for i in net.instances()})
        port_refs = [ref.pin_name for ref in net.pins() if ref.is_port]
        if len(clusters_touched) < 2 and not port_refs:
            continue
        if len(clusters_touched) + len(port_refs) < 2:
            continue
        new_net = clustered.add_net(net.name)
        new_net.weight = net.weight
        if net_weight_multipliers is not None:
            new_net.weight *= net_weight_multipliers[net.index]
        if port_refs:
            new_net.weight *= io_net_weight
        driver_cluster: Optional[int] = None
        if net.driver is not None and net.driver.instance is not None:
            driver_cluster = int(cluster_of[net.driver.instance.index])
        for c in clusters_touched:
            master = cluster_insts[c].master
            direction = (
                PinDirection.OUTPUT if c == driver_cluster else PinDirection.INPUT
            )
            pin_name = f"p{pin_counter[c]}"
            pin_counter[c] += 1
            master.pins[pin_name] = CellPin(
                name=pin_name, direction=direction, capacitance=1.0
            )
            clustered.connect(new_net, PinRef(cluster_insts[c], pin_name))
        for port_name in port_refs:
            clustered.connect_port(new_net, port_name)

    return ClusteredNetlist(
        design=clustered,
        source=source,
        cluster_of=cluster_of,
        members=members,
        cluster_areas=areas,
        shapes=shapes,
        lef=lef,
        net_weight_multipliers=net_weight_multipliers,
    )


def remap_clusters_reference(design: Design, cluster_of: np.ndarray, impact):
    """``EcoSession._remap_clusters`` as it walked ``pin_nets`` and
    ``Net.instances()``: ``(new cluster_of, dirty cluster set)``."""
    mapping = impact.instance_map
    new = np.full(design.num_instances, -1, dtype=np.int64)
    valid = mapping >= 0
    new[mapping[valid]] = cluster_of[valid]
    for idx in np.flatnonzero(new < 0):
        inst = design.instances[int(idx)]
        votes: Dict[int, int] = {}
        for net in inst.pin_nets.values():
            for other in net.instances():
                oi = other.index
                if oi != idx and new[oi] >= 0:
                    cid = int(new[oi])
                    votes[cid] = votes.get(cid, 0) + 1
        if votes:
            cid = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        else:
            counts = np.bincount(new[new >= 0])
            cid = int(counts.argmax()) if len(counts) else 0
        new[idx] = cid
    dirty = set()
    for idx in impact.touched_instances:
        dirty.add(int(new[idx]))
    for net_idx in impact.touched_nets:
        for inst in design.nets[net_idx].instances():
            dirty.add(int(new[inst.index]))
    return new, dirty


def extract_subnetlist_reference(source: Design, member_indices) -> Design:
    """Induce the sub-netlist over a cluster's instances.

    Inter-cluster nets become virtual IO ports: an input port per
    external driver, an output port per net with external sinks
    (Figure 3's port creation rule).  Nets are taken, and ports
    numbered, in each member's ``pin_nets`` order, members ascending.
    """
    members = set(int(i) for i in member_indices)
    sub = Design(f"{source.name}_sub")
    instance_map = {}
    for idx in sorted(members):
        inst = source.instances[idx]
        if inst.master.name not in sub.masters:
            sub.masters[inst.master.name] = inst.master
        new_inst = sub.add_instance(inst.name, inst.master)
        instance_map[idx] = new_inst

    nets_seen = set()
    port_counter = 0
    for idx in sorted(members):
        inst = source.instances[idx]
        for net in inst.pin_nets.values():
            if net.index in nets_seen or net.is_clock:
                continue
            nets_seen.add(net.index)
            internal_refs = []
            external_driver = False
            external_sink = False
            driver_internal = False
            for ref in net.pins():
                if ref.instance is not None and ref.instance.index in members:
                    internal_refs.append(ref)
                    if net.driver is ref:
                        driver_internal = True
                else:
                    if net.driver is ref:
                        external_driver = True
                    else:
                        external_sink = True
            if not internal_refs:
                continue
            if len(internal_refs) < 2 and not (external_driver or external_sink):
                continue
            new_net = sub.add_net(net.name)
            new_net.weight = net.weight
            for ref in internal_refs:
                sub.connect_instance_pin(
                    new_net, instance_map[ref.instance.index], ref.pin_name
                )
            if external_driver and not driver_internal:
                port_name = f"vin{port_counter}"
                port_counter += 1
                sub.add_port(port_name, PinDirection.INPUT)
                sub.connect_port(new_net, port_name)
            if external_sink and driver_internal:
                port_name = f"vout{port_counter}"
                port_counter += 1
                sub.add_port(port_name, PinDirection.OUTPUT)
                sub.connect_port(new_net, port_name)
    return sub


def netlist_digest_reference(sub: Design) -> str:
    """SHA-256 of the canonical form of a netlist, walked off its
    objects: masters, instances, sorted ports and nets with their
    driver / sink ``(vertex, pin name)`` references."""
    masters = {}
    for name in sorted(sub.masters):
        m = sub.masters[name]
        masters[name] = [
            m.width,
            m.height,
            m.is_sequential,
            m.is_macro,
            sorted(
                (p.name, p.direction.value, p.capacitance, p.is_clock)
                for p in m.pins.values()
            ),
        ]
    port_names = sorted(sub.ports)
    port_vertex = {name: sub.num_instances + i for i, name in enumerate(port_names)}

    def _ref(ref) -> list:
        if ref.instance is not None:
            return [ref.instance.index, ref.pin_name]
        return [port_vertex[ref.pin_name], ref.pin_name]

    nets = []
    for net in sub.nets:
        nets.append(
            [
                net.name,
                net.weight,
                net.is_clock,
                _ref(net.driver) if net.driver is not None else None,
                [_ref(ref) for ref in net.sinks],
            ]
        )
    canonical = {
        "masters": masters,
        "instances": [[i.name, i.master.name] for i in sub.instances],
        "ports": [
            [name, sub.ports[name].direction.value] for name in port_names
        ],
        "nets": nets,
    }
    return sha256_hex(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    )
