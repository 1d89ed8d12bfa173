"""Clustered netlist construction (Algorithm 1, lines 10 and 13).

Each cluster becomes an instance of a generated soft-macro master whose
size realises the cluster's chosen shape; inter-cluster nets are kept
(one clustered net per original crossing net, preserving placement
weights); fully-internal nets are dropped; top-level ports survive so
IO pull is modelled during the cluster placement.

The build reads the source's :class:`~repro.netlist.arrays.NetlistArrays`
and builds the small clustered design through the construction API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.shapes import ShapeCandidate, uniform_shape
from repro.netlist.design import CellPin, Design, MasterCell, PinDirection
from repro.netlist.lef import ClusterLef


@dataclass
class ClusteredNetlist:
    """A clustered design plus the book-keeping to map back.

    Attributes:
        design: The clustered design (clusters + ports).
        source: The original flat design.
        cluster_of: Cluster id per original instance index.
        members: Per-cluster original instance indices.
        cluster_areas: Per-cluster total cell area.
        shapes: Per-cluster chosen shape.
        lef: The cluster soft-macro LEF artefact.
        net_weight_multipliers: Per-source-net placement weight
            multiplier ``(source.num_nets,)``, or None.  The clustered
            nets already carry it; :func:`repro.core.seeded.seeded_placement`
            applies it to the flat refinement's net weights.
    """

    design: Design
    source: Design
    cluster_of: np.ndarray
    members: List[List[int]]
    cluster_areas: np.ndarray
    shapes: Dict[int, ShapeCandidate] = field(default_factory=dict)
    lef: ClusterLef = field(default_factory=ClusterLef)
    net_weight_multipliers: Optional[np.ndarray] = None

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.members)

    def cluster_centers(self) -> np.ndarray:
        """(k, 2) array of cluster instance positions (cluster ``c`` is
        the clustered design's instance ``c``)."""
        return np.column_stack(self.design.arrays().current_positions())

    def seed_flat_positions(self, scatter: float = 0.5, seed: int = 0) -> None:
        """Algorithm 1 line 17/24: place every original instance at its
        cluster's centre.

        A small deterministic scatter within the cluster's macro
        footprint (``scatter`` x the half-dimensions) conditions the
        incremental placer; ``scatter=0`` reproduces the literal
        all-at-centre seeding.
        """
        arrays = self.source.arrays()
        free = np.flatnonzero(~arrays.current_fixed())
        if not len(free):
            return
        centers = self.cluster_centers()
        cs = self.cluster_of[free]
        macro_w, macro_h = np.zeros((2, self.num_clusters))
        for c in np.unique(cs).tolist():
            macro = self.lef.macro_for(c)
            macro_w[c], macro_h[c] = macro.width, macro.height
        # A single vectorized draw consumes the generator's doubles in
        # the same order as the historical per-instance scalar calls
        # (dx then dy per non-fixed instance), so the seeded scatter is
        # reproduced bit for bit.
        draws = np.random.default_rng(seed).uniform(-0.5, 0.5, size=2 * len(free))
        draws = draws.reshape(-1, 2)
        x, y = arrays.current_positions()
        x[free] = centers[cs, 0] + draws[:, 0] * scatter * macro_w[cs]
        y[free] = centers[cs, 1] + draws[:, 1] * scatter * macro_h[cs]
        self.source.set_positions(x.tolist(), y.tolist())


def build_clustered_netlist(
    source: Design,
    cluster_of: Sequence[int],
    shapes: Optional[Dict[int, ShapeCandidate]] = None,
    io_net_weight: float = 1.0,
    net_weight_multipliers: Optional[np.ndarray] = None,
) -> ClusteredNetlist:
    """Build the clustered design from a cluster assignment.

    Clustered nets keep the source nets' order; each cluster's pins are
    ``p0, p1, ...`` in that order.

    Args:
        source: The flat design.
        cluster_of: Cluster id per instance.
        shapes: Per-cluster shapes from V-P&R; clusters without an
            entry get the uniform default shape.
        io_net_weight: Weight multiplier applied to nets touching
            top-level ports (the OpenROAD-mode flow scales these by 4,
            Algorithm 1 line 22, following [9]).
        net_weight_multipliers: Optional ``(source.num_nets,)`` weight
            multipliers, used by the flow to carry the Eq. 3 timing /
            switching criticality of inter-cluster nets into the
            cluster placement (our placer substrate is purely
            wirelength-driven, whereas the tools the paper drives run
            timing-driven placement natively; see DESIGN.md).
    """
    cluster_of = np.asarray(cluster_of, dtype=np.int64)
    if len(cluster_of) != source.num_instances:
        raise ValueError("cluster_of length mismatch")
    shapes = dict(shapes or {})
    k = int(cluster_of.max()) + 1 if len(cluster_of) else 0
    arrays = source.arrays()

    # Members in index order; each area is Python's ``sum`` over them
    # (compensated on 3.12+), as the object walk summed ``Instance.area``.
    order = np.argsort(cluster_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(cluster_of, minlength=k))))
    members = [order[starts[c] : starts[c + 1]].tolist() for c in range(k)]
    inst_areas = arrays.current_inst_areas()
    areas = np.array([sum(inst_areas[m].tolist()) for m in members], dtype=float)

    # Crossing nets: the (net, cluster) pairs and port pins of every
    # non-clock net; kept when they number two or more.
    nid = arrays.pin_net().astype(np.int64)
    pin_inst = arrays.pin_inst
    signal = ~arrays.net_is_clock[nid]
    inst_rows = np.flatnonzero(signal & (pin_inst >= 0))
    base = max(k, 1)
    pairs = np.unique(nid[inst_rows] * base + cluster_of[pin_inst[inst_rows]])
    pair_net, pair_cluster = np.divmod(pairs, base)
    port_rows = np.flatnonzero(signal & (pin_inst < 0))
    touched = np.bincount(pair_net, minlength=arrays.num_nets)
    ports = np.bincount(nid[port_rows], minlength=arrays.num_nets)
    keep = touched + ports >= 2
    kept = np.flatnonzero(keep)
    pair_keep = keep[pair_net]
    pair_net, pair_cluster = pair_net[pair_keep], pair_cluster[pair_keep]
    port_rows = port_rows[keep[nid[port_rows]]]

    # A driven net's driver is its first pin; its cluster's pin drives.
    first = pin_inst[arrays.net_ptr[pair_net]]
    driver = arrays.net_has_driver[pair_net] & (first >= 0)
    pair_drives = driver & (cluster_of[first] == pair_cluster)

    weights = arrays.current_net_weights()[kept]
    if net_weight_multipliers is not None:
        weights = weights * net_weight_multipliers[kept]
    weights = np.where(ports[kept] > 0, weights * io_net_weight, weights)

    clustered = Design(f"{source.name}_clustered", floorplan=source.floorplan)
    clustered.clock_period = source.clock_period
    lef = ClusterLef()
    default = uniform_shape()
    # Cluster ``c``'s pins ``p0, p1, ...`` in net order.
    by_cluster = np.argsort(pair_cluster, kind="stable")
    pin_ptr = np.searchsorted(pair_cluster[by_cluster], np.arange(k + 1))
    pin_drives = pair_drives[by_cluster].tolist()
    cluster_insts = []
    for c in range(k):
        shape = shapes.setdefault(c, default)
        macro = lef.add_cluster(c, max(areas[c], 1e-6), shape.aspect_ratio, shape.utilization)
        pins = {}
        for j, drives in enumerate(pin_drives[pin_ptr[c] : pin_ptr[c + 1]]):
            direction = PinDirection.OUTPUT if drives else PinDirection.INPUT
            pins[f"p{j}"] = CellPin(f"p{j}", direction, capacitance=1.0)
        master = MasterCell(
            name=f"CLUSTER_{c}",
            width=macro.width,
            height=macro.height,
            pins=pins,
            is_macro=True,
            cell_class="macro",
        )
        cluster_insts.append(clustered.add_instance(f"cluster_{c}", master))

    # Seed a cluster at the centroid of its fixed members (macros), else
    # leave it for the cluster placer.
    xs, ys = arrays.current_positions()
    fixed = np.flatnonzero(arrays.current_fixed())
    for c in np.unique(cluster_of[fixed]).tolist():
        sel = fixed[cluster_of[fixed] == c]
        inst = cluster_insts[c]
        inst.x = float(np.mean(xs[sel]))
        inst.y = float(np.mean(ys[sel]))
        inst.fixed = True

    for name, port in source.ports.items():
        new_port = clustered.add_port(name, port.direction, port.x, port.y)
        new_port.capacitance = port.capacitance

    # One clustered net per kept net in source order: its clusters
    # ascending, then its ports in pin order.
    cuts = kept[1:]
    net_clusters = np.split(pair_cluster, np.searchsorted(pair_net, cuts))
    net_ports = np.split(arrays.pin_port[port_rows], np.searchsorted(nid[port_rows], cuts))
    port_names = arrays.port_names
    pin_counter = [0] * k
    for n, weight, clusters, port_ids in zip(
        kept.tolist(), weights.tolist(), net_clusters, net_ports
    ):
        net = clustered.add_net(arrays.net_names[n])
        net.weight = weight
        for c in clusters.tolist():
            clustered.connect_instance_pin(net, cluster_insts[c], f"p{pin_counter[c]}")
            pin_counter[c] += 1
        for p in port_ids.tolist():
            clustered.connect_port(net, port_names[p])

    return ClusteredNetlist(
        clustered, source, cluster_of, members, areas, shapes, lef,
        net_weight_multipliers,
    )
