"""Array-native netlist core: the flat CSR form of a :class:`Design`.

The flat representation is the *primary* in-memory form of the netlist
and the only flat form there is: a snapshot
(:mod:`repro.netlist.snapshot`) is these constructor columns, nothing
else.  A :class:`NetlistArrays` holds the whole design as typed NumPy
arrays:

* net -> pin incidence as one CSR (``net_ptr`` / pin rows, driver
  first within each net), with per-pin owner, capacitance, direction
  and interned pin-name ids;
* instance -> connection reverse CSR (``ipin_ptr`` / ``ipin_rows``,
  rows in master-pin declaration order);
* per-master tables (geometry, timing, power, cell-class codes and the
  pin declaration list);
* per-instance master indices and areas;
* port geometry, directions and capacitances.

The flow's hot consumers — hypergraph construction
(:meth:`hyperedge_csr`), the STA graph build
(:class:`repro.sta.graph.TimingGraph`), placer netlist extraction
(:meth:`placement_csr`), HPWL/routing pin gathers (:meth:`pin_vertex_csr`),
V-P&R sub-netlists (:meth:`induce`) and ML feature extraction — read
these arrays directly instead of walking the linked object graph.

Caching and invalidation
------------------------

``design.arrays()`` builds the form once and caches it against
:meth:`Design.structure_key` — the one structure-keyed cache of the
flat form: derived CSRs (:meth:`pin_net`, :meth:`instance_pin_csr`,
:meth:`pin_vertex_csr`) are memoised on the instance and live and die
with it.  Every construction-API mutation (``add_instance`` /
``add_net`` / ``add_port`` / ``connect``) invalidates it automatically,
and out-of-API connectivity edits must call
:meth:`Design.bump_structure_version`.  Mutable *attributes* are
deliberately not trusted from the build-time columns: net weights,
instance coordinates/areas/fixed flags (gate sizing
swaps masters in place) and port coordinates are re-gathered from the
object view by the ``current_*`` accessors, so consumers always see
live values while the expensive connectivity flattening is reused
(:meth:`current_scalar` reads the design's scalars the same way).  The
timing graph built on a form lives on it, and dies with it.

Columns alone make one too: a V-P&R sub (:meth:`induce`) and a fleet
worker's decoded sub (:func:`repro.netlist.snapshot.netlist_from_snapshot`)
have no object view; :meth:`to_design` materializes one (for ECO, I/O and
the ext studies), digest-identical to the construction API's.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.design import (
    CellPin,
    Design,
    Floorplan,
    Instance,
    MasterCell,
    Net,
    PinDirection,
    PinRef,
    Port,
)

#: Direction codes used by ``mp_dir`` / ``pin_dir`` / ``port_dir``,
#: and the direction each code stands for.
DIR_INPUT, DIR_OUTPUT, DIR_INOUT = 0, 1, 2
DIRECTIONS: Tuple[PinDirection, ...] = (
    PinDirection.INPUT,
    PinDirection.OUTPUT,
    PinDirection.INOUT,
)
_DIR_CODE: Dict[PinDirection, int] = {d: i for i, d in enumerate(DIRECTIONS)}

#: The constructor's numeric columns — with the name lists the whole
#: form, and what a snapshot carries (:mod:`repro.netlist.snapshot`):
#: column -> (dtype kind, group giving its length, group its values
#: index or None).  A ``*_ptr`` column is a CSR offset vector over its
#: length group (one entry longer, ending at the indexed group's size);
#: the ``pin_inst`` / ``pin_port`` / ``pin_slot`` columns use -1 for
#: "not that kind of pin".
COLUMNS: Dict[str, Tuple[str, str, Optional[str]]] = {
    "m_width": ("f", "masters", None),
    "m_height": ("f", "masters", None),
    "m_is_seq": ("b", "masters", None),
    "m_is_macro": ("b", "masters", None),
    "m_intrinsic": ("f", "masters", None),
    "m_drive": ("f", "masters", None),
    "m_clk_to_q": ("f", "masters", None),
    "m_setup": ("f", "masters", None),
    "m_hold": ("f", "masters", None),
    "m_leakage": ("f", "masters", None),
    "m_energy": ("f", "masters", None),
    "mp_ptr": ("i", "masters", "slots"),
    "mp_name_idx": ("i", "slots", "names"),
    "mp_dir": ("i", "slots", "directions"),
    "mp_is_clock": ("b", "slots", None),
    "mp_cap": ("f", "slots", None),
    "inst_master": ("i", "instances", "masters"),
    "port_name_idx": ("i", "ports", "names"),
    "port_dir": ("i", "ports", "directions"),
    "port_x": ("f", "ports", None),
    "port_y": ("f", "ports", None),
    "port_cap": ("f", "ports", None),
    "net_ptr": ("i", "nets", "pins"),
    "net_has_driver": ("b", "nets", None),
    "net_is_clock": ("b", "nets", None),
    "net_weight": ("f", "nets", None),
    "pin_inst": ("i", "pins", "instances"),
    "pin_port": ("i", "pins", "ports"),
    "pin_name_idx": ("i", "pins", "names"),
    "pin_slot": ("i", "pins", "slots"),
}


#: Each master column and the :class:`MasterCell` field it holds.
_MASTER_FIELDS: Dict[str, str] = {
    "m_width": "width",
    "m_height": "height",
    "m_is_seq": "is_sequential",
    "m_is_macro": "is_macro",
    "m_intrinsic": "intrinsic_delay",
    "m_drive": "drive_resistance",
    "m_clk_to_q": "clk_to_q",
    "m_setup": "setup_time",
    "m_hold": "hold_time",
    "m_leakage": "leakage_power",
    "m_energy": "internal_energy",
}


def multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each (start, count):
    the classic vectorized gather every flat kernel (netlist, STA, ML
    features) uses."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nonzero = counts > 0
    if not nonzero.all():
        starts = starts[nonzero]
        counts = counts[nonzero]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out[0] = starts[0]
    if len(starts) > 1:
        out[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(out)


class NetlistArrays:
    """The flat CSR / typed-array form of one netlist (module docstring).

    All arrays are plain NumPy; lists hold interned strings only.  The
    per-field layout:

    Name interning
        ``name_pool``: every distinct master-pin and port name.

    Masters (index order = ``master_names`` order)
        ``m_width/m_height/m_area``, ``m_is_seq/m_is_macro``,
        ``m_intrinsic/m_drive/m_clk_to_q/m_setup/m_hold/m_leakage/m_energy``,
        ``m_class_code`` (index into ``Design.CELL_CLASSES``, -1 when
        unknown) + ``master_classes`` (raw strings);
        master-pin slots in declaration order:
        ``mp_ptr[m]:mp_ptr[m+1]`` rows with ``mp_name_idx`` /
        ``mp_dir`` / ``mp_is_clock`` / ``mp_cap``.

    Instances
        ``inst_master`` (master index), ``inst_area`` (build-time
        snapshot; sizing swaps masters — use
        :meth:`current_inst_areas`), optional ``inst_names``.

    Ports (insertion order)
        ``port_name_idx/port_dir/port_x/port_y/port_cap`` and
        ``port_sorted_rank`` (rank in sorted-name order — the vertex
        convention of :class:`repro.place.problem.PlacementProblem`).

    Nets / pins
        ``net_ptr`` CSR over pin rows in ``net.pins()`` order (driver
        first when ``net_has_driver``); per-net ``net_is_clock`` /
        ``net_weight`` (a snapshot; see ``current_net_weights``); per-pin
        ``pin_inst`` (-1 for ports), ``pin_port`` (port insertion index, -1 for instance
        pins), ``pin_name_idx``, ``pin_slot`` (global master-pin slot,
        -1 for ports), ``pin_cap``, ``pin_dir``, ``pin_is_clockpin``.
    """

    def __init__(
        self,
        *,
        name: str,
        floorplan: Tuple[float, float, float, float, float],
        clock_period: Optional[float],
        clock_port: Optional[str],
        input_activity: float,
        name_pool: List[str],
        master_names: List[str],
        master_classes: List[str],
        m_width: np.ndarray,
        m_height: np.ndarray,
        m_is_seq: np.ndarray,
        m_is_macro: np.ndarray,
        m_intrinsic: np.ndarray,
        m_drive: np.ndarray,
        m_clk_to_q: np.ndarray,
        m_setup: np.ndarray,
        m_hold: np.ndarray,
        m_leakage: np.ndarray,
        m_energy: np.ndarray,
        mp_ptr: np.ndarray,
        mp_name_idx: np.ndarray,
        mp_dir: np.ndarray,
        mp_is_clock: np.ndarray,
        mp_cap: np.ndarray,
        inst_master: np.ndarray,
        port_name_idx: np.ndarray,
        port_dir: np.ndarray,
        port_x: np.ndarray,
        port_y: np.ndarray,
        port_cap: np.ndarray,
        net_ptr: np.ndarray,
        net_has_driver: np.ndarray,
        net_is_clock: np.ndarray,
        net_weight: np.ndarray,
        pin_inst: np.ndarray,
        pin_port: np.ndarray,
        pin_name_idx: np.ndarray,
        pin_slot: np.ndarray,
        inst_names: Optional[List[str]] = None,
        net_names: Optional[List[str]] = None,
        design: Optional[Design] = None,
    ) -> None:
        self.name = name
        self.floorplan = floorplan
        self.clock_period = clock_period
        self.clock_port = clock_port
        self.input_activity = input_activity
        self.name_pool = name_pool
        self.master_names = master_names
        self.master_classes = master_classes
        self.m_width = m_width
        self.m_height = m_height
        self.m_area = m_width * m_height
        self.m_is_seq = m_is_seq
        self.m_is_macro = m_is_macro
        self.m_intrinsic = m_intrinsic
        self.m_drive = m_drive
        self.m_clk_to_q = m_clk_to_q
        self.m_setup = m_setup
        self.m_hold = m_hold
        self.m_leakage = m_leakage
        self.m_energy = m_energy
        classes = {c: i for i, c in enumerate(Design.CELL_CLASSES)}
        self.m_class_code = np.fromiter(
            (classes.get(c, -1) for c in master_classes),
            dtype=np.int16,
            count=len(master_classes),
        )
        self.mp_ptr = mp_ptr
        self.mp_name_idx = mp_name_idx
        self.mp_dir = mp_dir
        self.mp_is_clock = mp_is_clock
        self.mp_cap = mp_cap
        # Index columns are int32: supports 2^31 entities while halving
        # the per-pin footprint (kernels that form composite keys with
        # room to overflow upcast to int64 explicitly).
        inst_master = np.asarray(inst_master, dtype=np.int32)
        self.inst_master = inst_master
        self.inst_area = self.m_area[inst_master] if len(inst_master) else np.zeros(0)
        self.inst_names = inst_names
        self.port_name_idx = port_name_idx
        self.port_dir = port_dir
        self.port_x = port_x
        self.port_y = port_y
        self.port_cap = port_cap
        port_names = self.port_names
        order = sorted(range(len(port_names)), key=port_names.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        self.port_sorted_rank = rank
        net_ptr = np.asarray(net_ptr, dtype=np.int64)
        pin_inst = np.asarray(pin_inst, dtype=np.int32)
        pin_port = np.asarray(pin_port, dtype=np.int32)
        pin_slot = np.asarray(pin_slot, dtype=np.int32)
        self.net_ptr = net_ptr
        self.net_has_driver = net_has_driver
        self.net_is_clock = net_is_clock
        self.net_weight = net_weight
        self.net_names = net_names
        self.pin_inst = pin_inst
        self.pin_port = pin_port
        self.pin_name_idx = pin_name_idx
        self.pin_slot = pin_slot
        # Derived per-pin electrical data (one gather, reused by STA /
        # delay tables).
        is_port_pin = pin_inst < 0
        if len(pin_inst):
            # A design may have no ports or no master pins at all;
            # guard the gathers with 1-element padding.
            pcap = port_cap if len(port_cap) else np.zeros(1)
            pdir = port_dir if len(port_dir) else np.zeros(1, dtype=np.int8)
            scap = mp_cap if len(mp_cap) else np.zeros(1)
            sdir = mp_dir if len(mp_dir) else np.zeros(1, dtype=np.int8)
            sclk = mp_is_clock if len(mp_is_clock) else np.zeros(1, dtype=bool)
            slot_safe = np.where(pin_slot >= 0, pin_slot, 0)
            port_safe = np.where(pin_port >= 0, pin_port, 0)
            self.pin_cap = np.where(
                is_port_pin, pcap[port_safe], scap[slot_safe]
            )
            self.pin_dir = np.where(
                is_port_pin, pdir[port_safe], sdir[slot_safe]
            ).astype(np.int8)
            self.pin_is_clockpin = np.where(
                is_port_pin, False, sclk[slot_safe]
            )
        else:
            self.pin_cap = np.zeros(0)
            self.pin_dir = np.zeros(0, dtype=np.int8)
            self.pin_is_clockpin = np.zeros(0, dtype=bool)
        self.net_degree = np.diff(net_ptr).astype(np.int32)
        self.net_fanout = self.net_degree - net_has_driver.astype(np.int32)
        #: Source object view (None for array-native construction).
        self.design = design
        #: Filled by Design.arrays() for cache validation.
        self.structure_key: Optional[tuple] = None
        #: The timing graph built on this form, held by
        #: :func:`repro.sta.graph.timing_graph_for`.
        self.timing_graph = None
        #: Master patches applied in place (:meth:`patch_instance_master`).
        self.master_version = 0
        self._pin_net: Optional[np.ndarray] = None
        self._ipin: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._pin_vertex: Dict[bool, Tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        """Number of instances."""
        return len(self.inst_master)

    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return len(self.net_ptr) - 1

    @property
    def num_ports(self) -> int:
        """Number of top-level ports."""
        return len(self.port_name_idx)

    @property
    def num_pins(self) -> int:
        """Total pin connections across all nets."""
        return len(self.pin_inst)

    @property
    def port_names(self) -> List[str]:
        """Port names in insertion order."""
        pool = self.name_pool
        return [pool[i] for i in self.port_name_idx.tolist()]

    # ------------------------------------------------------------------
    # Memoised derived structure
    # ------------------------------------------------------------------
    def pin_net(self) -> np.ndarray:
        """Net index of every pin row (memoised)."""
        if self._pin_net is None:
            self._pin_net = np.repeat(
                np.arange(self.num_nets, dtype=np.int32), self.net_degree
            )
        return self._pin_net

    def instance_pin_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Instance -> connection CSR ``(indptr, rows)``, memoised.

        ``rows[indptr[i]:indptr[i + 1]]`` index the pin-row arrays for
        instance ``i``'s connections, in master-pin declaration order
        (global slot ids are declaration-ordered within one master, so
        sorting by slot sorts by declaration position).
        """
        if self._ipin is None:
            inst_rows = np.flatnonzero(self.pin_inst >= 0)
            owners = self.pin_inst[inst_rows]
            order = np.lexsort((self.pin_slot[inst_rows], owners))
            rows = inst_rows[order].astype(np.int32)
            counts = np.bincount(owners, minlength=self.num_instances)
            indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._ipin = (indptr, rows)
        return self._ipin

    # ------------------------------------------------------------------
    # Surgical patching (ECO)
    # ------------------------------------------------------------------
    def patch_instance_master(self, inst_index: int) -> bool:
        """Retarget one instance's rows after a master swap, in place.

        Called by :meth:`Design.replace_master` so a gate resize does
        not force a full O(pins) rebuild.  The patch is only legal when
        the new master is already in the flattened tables, declares
        the same pin list (names, order, directions, clock flags) as
        the old one and is as sequential as it — the common resize case
        of swapping within one cell family, which leaves the timing
        graph's topology as it was.  Returns False otherwise; the
        caller falls back to invalidating the cached form entirely.
        """
        design = self.design
        if design is None:
            return False
        master = design.instances[inst_index].master
        try:
            new_mi = self.master_names.index(master.name)
        except ValueError:
            return False
        old_mi = int(self.inst_master[inst_index])
        if new_mi == old_mi:
            return True
        o0, o1 = int(self.mp_ptr[old_mi]), int(self.mp_ptr[old_mi + 1])
        n0, n1 = int(self.mp_ptr[new_mi]), int(self.mp_ptr[new_mi + 1])
        if (o1 - o0) != (n1 - n0) or self.m_is_seq[old_mi] != self.m_is_seq[new_mi]:
            return False
        if not (
            np.array_equal(self.mp_name_idx[o0:o1], self.mp_name_idx[n0:n1])
            and np.array_equal(self.mp_dir[o0:o1], self.mp_dir[n0:n1])
            and np.array_equal(self.mp_is_clock[o0:o1], self.mp_is_clock[n0:n1])
        ):
            return False
        self.inst_master[inst_index] = new_mi
        self.inst_area[inst_index] = self.m_area[new_mi]
        self.master_version += 1
        # Retarget this instance's pin rows to the new master's slot
        # range; the shift is monotonic, so the declaration-ordered
        # instance_pin_csr memo stays valid.
        indptr, rows = self.instance_pin_csr()
        mine = rows[indptr[inst_index] : indptr[inst_index + 1]]
        if len(mine):
            self.pin_slot[mine] = self.pin_slot[mine] - o0 + n0
            self.pin_cap[mine] = self.mp_cap[self.pin_slot[mine]]
        return True

    # ------------------------------------------------------------------
    # Live-attribute gathers (object view wins when present)
    # ------------------------------------------------------------------
    def current_net_weights(self, nets: Optional[np.ndarray] = None) -> np.ndarray:
        """Placement weights of ``nets`` (default: every net), live
        when an object view exists."""
        if self.design is None:
            return self.net_weight if nets is None else self.net_weight[nets]
        objects = self.design.nets
        picked = objects if nets is None else [objects[i] for i in nets.tolist()]
        return np.fromiter((n.weight for n in picked), np.float64, count=len(picked))

    def current_scalar(self, name: str):
        """Scalar ``name`` (``clock_period``, ``clock_port`` or
        ``input_activity``), live when an object view exists: loaders
        set a design's scalars after its form may have been built."""
        return getattr(self.design if self.design is not None else self, name)

    def current_inst_areas(self) -> np.ndarray:
        """Per-instance areas, live (gate sizing swaps masters in place)."""
        if self.design is None:
            return self.inst_area
        instances = self.design.instances
        return np.fromiter(
            (i.master.width * i.master.height for i in instances),
            dtype=np.float64,
            count=len(instances),
        )

    def current_positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-instance centre coordinates, live when possible."""
        if self.design is None:
            n = self.num_instances
            return np.zeros(n), np.zeros(n)
        instances = self.design.instances
        n = len(instances)
        xs = np.fromiter((i.x for i in instances), dtype=np.float64, count=n)
        ys = np.fromiter((i.y for i in instances), dtype=np.float64, count=n)
        return xs, ys

    def current_port_xy(self) -> Tuple[np.ndarray, np.ndarray]:
        """Port coordinates in insertion order, live when possible
        (V-P&R virtual dies move the port ring between candidates)."""
        if self.design is None:
            return self.port_x, self.port_y
        ports = self.design.ports
        n = len(ports)
        xs = np.fromiter((p.x for p in ports.values()), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for p in ports.values()), dtype=np.float64, count=n)
        return xs, ys

    def current_fixed(self) -> np.ndarray:
        """Per-instance fixed flags, live when an object view exists."""
        if self.design is None:
            return np.zeros(self.num_instances, dtype=bool)
        instances = self.design.instances
        n = len(instances)
        return np.fromiter((i.fixed for i in instances), dtype=bool, count=n)

    def vertex_positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Live ``(x, y)`` per placement vertex — instances, then ports
        in sorted-name order: the coordinates :meth:`placement_csr` and
        :meth:`pin_vertex_csr` rows index."""
        n_inst = self.num_instances
        x = np.empty(n_inst + self.num_ports)
        y = np.empty_like(x)
        x[:n_inst], y[:n_inst] = self.current_positions()
        ports = n_inst + self.port_sorted_rank
        x[ports], y[ports] = self.current_port_xy()
        return x, y

    # ------------------------------------------------------------------
    # Consumer kernels
    # ------------------------------------------------------------------
    def pin_vertices(self, rows=slice(None)) -> np.ndarray:
        """Placement vertex of pin ``rows``: the owner instance, or
        ``num_instances`` + the port's sorted-name rank (``pin_port``
        is -1 on instance pins, which the padding absorbs)."""
        port_vertex = self.num_instances + np.append(self.port_sorted_rank, 0)
        owner = self.pin_inst[rows]
        return np.where(owner >= 0, owner, port_vertex[self.pin_port[rows]])

    def hyperedge_csr(
        self,
        include_clock: bool = False,
        max_edge_degree: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Instance hyperedges as ``(indptr, vertices, net_indices)``.

        One edge per kept net, in net-index order, members sorted
        ascending and deduplicated — exactly the edge list
        :meth:`repro.netlist.hypergraph.Hypergraph.from_netlist`
        produces, computed as array kernels instead of per-net Python.
        Nets reduced to fewer than two distinct instances are dropped;
        clock nets are dropped unless ``include_clock``; nets wider
        than ``max_edge_degree`` distinct members are dropped.
        """
        nid = self.pin_net()
        keep = self.pin_inst >= 0
        if not include_clock:
            keep &= ~self.net_is_clock[nid]
        return self._distinct_vertices(nid[keep], self.pin_inst[keep], max_edge_degree)

    def placement_csr(
        self, include_clock: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Placement-problem nets as ``(pin_vertex, net_offsets, net_indices)``.

        Vertex convention of :class:`repro.place.problem.PlacementProblem`:
        instances first, then ports in sorted-name order.  Members are
        distinct vertex ids sorted ascending; nets with fewer than two
        distinct vertices are dropped.
        """
        nid = self.pin_net()
        keep = slice(None) if include_clock else ~self.net_is_clock[nid]
        offsets, pin_vertex, nets = self._distinct_vertices(
            nid[keep], self.pin_vertices(keep)
        )
        return pin_vertex, offsets, nets

    def _distinct_vertices(
        self, nets: np.ndarray, vertices: np.ndarray, max_degree: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, vertices, net_indices)`` of the pins given by their
        ``nets`` and ``vertices``: per net in index order its distinct
        vertices ascending; nets with fewer than two (or more than
        ``max_degree``) of them dropped."""
        order = np.lexsort((vertices, nets))
        nets, vertices = nets[order], vertices[order]
        first = np.ones(len(nets), dtype=bool)
        first[1:] = (nets[1:] != nets[:-1]) | (vertices[1:] != vertices[:-1])
        deg = np.bincount(nets[first], minlength=self.num_nets)
        sel = deg >= 2
        if max_degree is not None:
            sel &= deg <= max_degree
        sel_nets = np.flatnonzero(sel)
        counts = deg[sel_nets]
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        net_start = np.concatenate(([0], np.cumsum(deg))).astype(np.int64)
        vertices = vertices[first][multi_arange(net_start[sel_nets], counts)]
        return indptr, vertices, sel_nets

    def pin_vertex_csr(
        self, include_clock: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All-pin vertex rows as ``(pin_vertex, net_offsets, net_indices)``.

        Unlike :meth:`placement_csr` this keeps every pin connection
        (duplicates included) in ``net.pins()`` order, which is what
        the HPWL/routing gathers need; nets with ``degree < 2`` (or
        clock nets, unless included) are dropped.  Same vertex
        convention: instances, then sorted ports.  Memoised per
        ``include_clock`` (the arrays are shared: do not write to them).
        """
        include_clock = bool(include_clock)
        if include_clock in self._pin_vertex:
            return self._pin_vertex[include_clock]
        keep = self.net_degree >= 2
        if not include_clock:
            keep &= ~self.net_is_clock
        sel_nets = np.flatnonzero(keep)
        counts = self.net_degree[sel_nets]
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        pin_vertex = self.pin_vertices(multi_arange(self.net_ptr[sel_nets], counts))
        self._pin_vertex[include_clock] = pin_vertex, offsets, sel_nets
        return pin_vertex, offsets, sel_nets

    def induce(self, members) -> "NetlistArrays":
        """The sub-netlist over instances ``members`` (Figure 3).

        Clock nets are left out.  A net with an outside driver gets an
        input port ``vin{k}`` (its driver), one driven inside with
        outside sinks an output port ``vout{k}`` (its last sink); a net
        with one member pin and no outside pin is dropped.  Instances
        are taken ascending, nets (so port numbers) in (first member,
        net index) order: the sub depends on the netlist, not on the
        order past edits connected its pins.  Net weights are live.
        The columns are what :meth:`from_design` gives for the same sub.
        Costs O(member pins + pins of the nets they touch).
        """
        members = np.unique(np.asarray(members, dtype=np.int64))
        indptr, irows = self.instance_pin_csr()
        counts = indptr[members + 1] - indptr[members]
        nets = self.pin_net()[irows[multi_arange(indptr[members], counts)]]
        first_member = np.repeat(np.arange(len(members)), counts)
        signal = ~self.net_is_clock[nets]
        nets = nets[signal][np.lexsort((nets[signal], first_member[signal]))]
        _, first = np.unique(nets, return_index=True)
        nets = nets[np.sort(first)]

        # Every pin of every touched net: inside the cluster or not.
        degree = self.net_degree[nets].astype(np.int64)
        rows = multi_arange(self.net_ptr[nets], degree)
        row_net = np.repeat(np.arange(len(nets)), degree)
        owner = self.pin_inst[rows]
        local = np.minimum(np.searchsorted(members, owner), max(len(members) - 1, 0))
        inside = members[local] == owner
        n_inside = np.bincount(row_net[inside], minlength=len(nets))
        driven = self.net_has_driver[nets]
        driver_inside = driven & inside[np.cumsum(degree) - degree]
        vin = driven & ~driver_inside
        outside_sink = degree - n_inside - vin > 0
        keep = (n_inside >= 2) | vin | outside_sink
        kept, vin = nets[keep], vin[keep]
        vout = (outside_sink & driver_inside)[keep]
        has_port = vin | vout
        net_ptr = np.concatenate(([0], np.cumsum(n_inside[keep] + has_port)))

        # Masters in first-use order, their pin slots, the name pool.
        inst_master = self.inst_master[members]
        _, first = np.unique(inst_master, return_index=True)
        used = inst_master[np.sort(first)].astype(np.int64)
        master_of = np.full(len(self.master_names), -1, dtype=np.int64)
        master_of[used] = np.arange(len(used))
        mp_counts = self.mp_ptr[used + 1] - self.mp_ptr[used]
        slots = multi_arange(self.mp_ptr[used], mp_counts)
        slot_of = np.full(len(self.mp_cap), -1, dtype=np.int64)
        slot_of[slots] = np.arange(len(slots))
        names = [self.name_pool[i] for i in self.mp_name_idx[slots].tolist()]
        names += [
            f"vin{k}" if is_in else f"vout{k}"
            for k, is_in in enumerate(vin[has_port].tolist())
        ]
        pool: Dict[str, int] = {}
        ids = np.array([pool.setdefault(n, len(pool)) for n in names], dtype=np.int32)
        mp_name_idx, port_name_idx = ids[: len(slots)], ids[len(slots) :]

        # Pin rows: [vin port] + the member pins in stored order + [vout port].
        pin_inst, pin_port, pin_slot = np.full((3, net_ptr[-1]), -1, dtype=np.int64)
        pin_name_idx = np.empty(net_ptr[-1], dtype=np.int32)
        new_net = np.cumsum(keep) - 1
        chosen = inside & keep[row_net]
        at = new_net[row_net[chosen]]
        member_ptr = np.concatenate(([0], np.cumsum(n_inside[keep])))
        pos = net_ptr[at] + vin[at] + np.arange(len(at)) - member_ptr[at]
        pin_inst[pos] = local[chosen]
        pin_slot[pos] = slot_of[self.pin_slot[rows[chosen]]]
        pin_name_idx[pos] = mp_name_idx[pin_slot[pos]]
        port_net = np.flatnonzero(has_port)
        pos = np.where(vin[port_net], net_ptr[port_net], net_ptr[port_net + 1] - 1)
        pin_port[pos] = np.arange(len(port_net))
        pin_name_idx[pos] = port_name_idx

        return NetlistArrays(
            name=f"{self.name}_sub",
            floorplan=astuple(Floorplan()),
            clock_period=None,
            clock_port=None,
            input_activity=self.input_activity,
            name_pool=list(pool),
            master_names=[self.master_names[m] for m in used.tolist()],
            master_classes=[self.master_classes[m] for m in used.tolist()],
            **{c: getattr(self, c)[used] for c in _MASTER_FIELDS},
            mp_ptr=np.concatenate(([0], np.cumsum(mp_counts))).astype(np.int64),
            mp_name_idx=mp_name_idx,
            **{c: getattr(self, c)[slots] for c in ("mp_dir", "mp_is_clock", "mp_cap")},
            inst_master=master_of[inst_master],
            port_name_idx=port_name_idx,
            port_dir=np.where(vin[has_port], DIR_INPUT, DIR_OUTPUT).astype(np.int8),
            port_x=np.zeros(len(port_net)),
            port_y=np.zeros(len(port_net)),
            port_cap=np.full(len(port_net), Port.capacitance),
            net_ptr=net_ptr,
            net_has_driver=driver_inside[keep] | vin,
            net_is_clock=np.zeros(len(kept), dtype=bool),
            net_weight=self.current_net_weights(kept),
            pin_inst=pin_inst,
            pin_port=pin_port,
            pin_name_idx=pin_name_idx,
            pin_slot=pin_slot,
            inst_names=[self.inst_names[i] for i in members.tolist()],
            net_names=[self.net_names[i] for i in kept.tolist()],
        )

    # ------------------------------------------------------------------
    # Construction from / materialization to the object view
    # ------------------------------------------------------------------
    @classmethod
    def from_design(cls, design: Design) -> "NetlistArrays":
        """Flatten a design into its array form (one pass over pins):
        the only code that turns an object graph into a flat form."""
        pool_index: Dict[str, int] = {}
        name_pool: List[str] = []

        def intern(name: str) -> int:
            idx = pool_index.get(name)
            if idx is None:
                idx = len(name_pool)
                pool_index[name] = idx
                name_pool.append(name)
            return idx

        # -- masters ---------------------------------------------------
        master_names: List[str] = []
        master_classes: List[str] = []
        master_index: Dict[int, int] = {}
        slot_of: Dict[Tuple[int, str], int] = {}
        mp_counts: List[int] = []
        mp_name_list: List[int] = []
        mp_dir: List[int] = []
        mp_is_clock: List[bool] = []
        mp_cap: List[float] = []
        for name, m in design.masters.items():
            mi = len(master_names)
            master_index[id(m)] = mi
            master_names.append(name)
            master_classes.append(m.cell_class)
            mp_counts.append(len(m.pins))
            for pin in m.pins.values():
                slot_of[(mi, pin.name)] = len(mp_name_list)
                mp_name_list.append(intern(pin.name))
                mp_dir.append(_DIR_CODE[pin.direction])
                mp_is_clock.append(pin.is_clock)
                mp_cap.append(pin.capacitance)
        masters = design.masters.values()
        master_columns = {
            column: np.array(
                [getattr(m, field) for m in masters],
                dtype=bool if COLUMNS[column][0] == "b" else np.float64,
            )
            for column, field in _MASTER_FIELDS.items()
        }

        # -- instances -------------------------------------------------
        instances = design.instances
        inst_master = np.fromiter(
            (master_index[id(i.master)] for i in instances),
            dtype=np.int64,
            count=len(instances),
        )
        inst_names = [i.name for i in instances]

        # -- ports -----------------------------------------------------
        ports = design.ports.values()
        port_rank = {name: i for i, name in enumerate(design.ports)}
        port_name_idx = [intern(name) for name in design.ports]

        # -- nets / pins -----------------------------------------------
        nets = design.nets
        net_counts: List[int] = []
        net_has_driver = np.zeros(len(nets), dtype=bool)
        net_is_clock: List[bool] = []
        net_weight: List[float] = []
        net_names: List[str] = []
        pin_inst: List[int] = []
        pin_port: List[int] = []
        pin_name_idx: List[int] = []
        pin_slot: List[int] = []
        im_list = inst_master.tolist()
        for ni, net in enumerate(nets):
            net_is_clock.append(net.is_clock)
            net_weight.append(net.weight)
            net_names.append(net.name)
            count = 0
            if net.driver is not None:
                net_has_driver[ni] = True
            for ref in net.pins():
                inst = ref.instance
                if inst is None:
                    pin_inst.append(-1)
                    pin_port.append(port_rank[ref.pin_name])
                    pin_name_idx.append(port_name_idx[pin_port[-1]])
                    pin_slot.append(-1)
                else:
                    ii = inst.index
                    pin_inst.append(ii)
                    pin_port.append(-1)
                    slot = slot_of[(im_list[ii], ref.pin_name)]
                    pin_name_idx.append(mp_name_list[slot])
                    pin_slot.append(slot)
                count += 1
            net_counts.append(count)

        fp = design.floorplan
        return cls(
            name=design.name,
            floorplan=(
                fp.die_width,
                fp.die_height,
                fp.core_margin,
                fp.row_height,
                fp.target_utilization,
            ),
            clock_period=design.clock_period,
            clock_port=design.clock_port,
            input_activity=design.input_activity,
            name_pool=name_pool,
            master_names=master_names,
            master_classes=master_classes,
            **master_columns,
            mp_ptr=np.concatenate(([0], np.cumsum(mp_counts))).astype(np.int64),
            mp_name_idx=np.asarray(mp_name_list, dtype=np.int32),
            mp_dir=np.asarray(mp_dir, dtype=np.int8),
            mp_is_clock=np.asarray(mp_is_clock, dtype=bool),
            mp_cap=np.asarray(mp_cap, dtype=np.float64),
            inst_master=inst_master,
            port_name_idx=np.asarray(port_name_idx, dtype=np.int32),
            port_dir=np.array([_DIR_CODE[p.direction] for p in ports], dtype=np.int8),
            port_x=np.array([p.x for p in ports], dtype=np.float64),
            port_y=np.array([p.y for p in ports], dtype=np.float64),
            port_cap=np.array([p.capacitance for p in ports], dtype=np.float64),
            net_ptr=np.concatenate(([0], np.cumsum(net_counts))).astype(np.int64),
            net_has_driver=net_has_driver,
            net_is_clock=np.asarray(net_is_clock, dtype=bool),
            net_weight=np.asarray(net_weight, dtype=np.float64),
            pin_inst=np.asarray(pin_inst, dtype=np.int64),
            pin_port=np.asarray(pin_port, dtype=np.int64),
            pin_name_idx=np.asarray(pin_name_idx, dtype=np.int32),
            pin_slot=np.asarray(pin_slot, dtype=np.int64),
            inst_names=inst_names,
            net_names=net_names,
            design=design,
        )

    def to_design(
        self,
        positions: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        fixed: Optional[np.ndarray] = None,
    ) -> Design:
        """Materialize the object view (batch construction).

        Builds instances, nets and pin references directly — no
        per-pin ``connect`` classification, no per-name duplicate
        checks — while producing exactly the structure the
        construction API would: the first pin of a driven net becomes
        the driver, the rest sinks in order, and ``pin_nets`` is filled
        for every instance pin.  Round-tripping a design through
        ``from_design`` / ``to_design`` is digest-identical.  Arrays
        that had no object view (built directly, or decoded from a
        snapshot) take the materialized design as theirs and become its
        cached form: its first ``arrays()`` is a hit, not a re-walk.

        Args:
            positions: Optional per-instance (x, y) arrays (defaults to
                :meth:`current_positions`: the source design's, else 0).
            fixed: Optional per-instance fixed mask (:meth:`current_fixed`).
        """
        design = Design(self.name, floorplan=Floorplan(*self.floorplan))
        design.clock_period = self.clock_period
        design.clock_port = self.clock_port
        design.input_activity = self.input_activity
        pool = self.name_pool

        # Masters.
        masters: List[MasterCell] = []
        mp_ptr = self.mp_ptr.tolist()
        mp_names = self.mp_name_idx.tolist()
        mp_dirs = self.mp_dir.tolist()
        mp_clk = self.mp_is_clock.tolist()
        mp_cap = self.mp_cap.tolist()
        fields = {f: getattr(self, c).tolist() for c, f in _MASTER_FIELDS.items()}
        for mi, name in enumerate(self.master_names):
            pins: Dict[str, CellPin] = {}
            for s in range(mp_ptr[mi], mp_ptr[mi + 1]):
                pin_name = pool[mp_names[s]]
                pins[pin_name] = CellPin(
                    pin_name, DIRECTIONS[mp_dirs[s]], mp_cap[s], mp_clk[s]
                )
            master = MasterCell(
                name=name,
                pins=pins,
                cell_class=self.master_classes[mi],
                **{field: values[mi] for field, values in fields.items()},
            )
            masters.append(master)
            design.masters[name] = master

        # Instances (batch; names synthesized when the arrays carry none).
        n = self.num_instances
        names = self.inst_names
        if names is None:
            names = [f"U{i}" for i in range(n)]
        im = self.inst_master.tolist()
        if positions is None:
            positions = self.current_positions()
        if fixed is None:
            fixed = self.current_fixed()
        xs, ys, fx = positions[0].tolist(), positions[1].tolist(), fixed.tolist()
        instances: List[Instance] = []
        for i in range(n):
            inst = Instance(names[i], masters[im[i]], index=i)
            inst.x, inst.y, inst.fixed = xs[i], ys[i], fx[i]
            instances.append(inst)
        design.instances = instances
        design._instance_by_name = dict(zip(names, instances))

        # Ports.
        port_names = self.port_names
        for pi, name in enumerate(port_names):
            port = Port(
                name,
                DIRECTIONS[int(self.port_dir[pi])],
                float(self.port_x[pi]),
                float(self.port_y[pi]),
            )
            port.capacitance = float(self.port_cap[pi])
            design.ports[name] = port

        # Nets + pin references.
        net_names = self.net_names
        if net_names is None:
            net_names = [f"n{i}" for i in range(self.num_nets)]
        ptr = self.net_ptr.tolist()
        has_driver = self.net_has_driver.tolist()
        is_clock = self.net_is_clock.tolist()
        weight = self.net_weight.tolist()
        p_inst = self.pin_inst.tolist()
        p_port = self.pin_port.tolist()
        p_name = self.pin_name_idx.tolist()
        nets: List[Net] = []
        for ni in range(self.num_nets):
            net = Net(net_names[ni], index=ni)
            net.weight = weight[ni]
            net.is_clock = is_clock[ni]
            start, end = ptr[ni], ptr[ni + 1]
            first_sink = start
            if has_driver[ni] and end > start:
                r = start
                inst = instances[p_inst[r]] if p_inst[r] >= 0 else None
                pin_name = pool[p_name[r]] if inst is not None else port_names[p_port[r]]
                net.driver = PinRef(inst, pin_name)
                if inst is not None:
                    inst.pin_nets[pin_name] = net
                first_sink = start + 1
            sinks = net.sinks
            for r in range(first_sink, end):
                ii = p_inst[r]
                if ii >= 0:
                    inst = instances[ii]
                    pin_name = pool[p_name[r]]
                    sinks.append(PinRef(inst, pin_name))
                    inst.pin_nets[pin_name] = net
                else:
                    sinks.append(PinRef(None, port_names[p_port[r]]))
            nets.append(net)
        design.nets = nets
        design._net_by_name = {net.name: net for net in nets}
        design.bump_structure_version()
        if self.design is None:
            self.design = design
            self.inst_names, self.net_names = names, net_names
            self.structure_key = design.structure_key()
            design._netlist_arrays = self
        return design

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetlistArrays({self.name!r}, insts={self.num_instances}, "
            f"nets={self.num_nets}, pins={self.num_pins})"
        )
