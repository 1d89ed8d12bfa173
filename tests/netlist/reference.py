"""The object-graph walks the array-native netlist core replaced, kept
as the tests' oracle.

``Hypergraph.from_design`` and ``PlacementProblem`` build from the
``NetlistArrays`` CSR kernels; until the ``use_arrays`` flag was deleted
each also carried the per-net / per-instance Python walk below.  The
bodies are verbatim, made standalone (the placement walk returns its
arrays by name instead of filling a ``PlacementProblem``) and must
agree with the array builders bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.design import Design
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
