"""Timing graph construction and levelization.

Nodes are pins (instance pins and top-level ports); arcs are

* cell arcs: input pin -> output pin of a combinational cell,
* wire arcs: driver pin -> each sink pin of a net.

Clock pins are not modelled as nodes: sequential Q pins are path
*startpoints* whose launch time (clock edge + clk-to-q) the analyzer
applies directly, which is equivalent to an explicit CK -> Q launch arc
under the single-clock, zero-insertion-delay model (CTS skew enters as
clock uncertainty at the endpoints).

Sequential D-type inputs and output ports are path endpoints; input
ports and sequential Q outputs are path startpoints.  The generator
guarantees combinational acyclicity, and :meth:`TimingGraph.levelize`
verifies it (raising on a combinational loop, as OpenSTA would flag).

The graph is built from a :class:`~repro.netlist.arrays.NetlistArrays`
alone and records flat integer arrays: per-node owner instance and
interned pin name, and the arcs (wire arcs first, then cell arcs — the
creation order) that :mod:`repro.sta.flat` compiles into the
vectorized-STA form.  :func:`timing_graph_for` keeps it on the flat
form it was built from.  The object-graph walk the builder replaced is
the tests' oracle (``tests/sta/reference.py``).
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.netlist.arrays import DIR_INPUT, DIR_OUTPUT, NetlistArrays, multi_arange


def _pin_keys(arrays, rows) -> np.ndarray:
    """Composite key of pin ``rows``: (owner + 1) * |pool| + pin-name
    id, with owner -1 (ports) mapping to code 0.  Unique per physical
    pin.  (int32 owner columns upcast: the product overflows 32 bits.)"""
    owner = arrays.pin_inst[rows].astype(np.int64)
    return (owner + 1) * len(arrays.name_pool) + arrays.pin_name_idx[rows]


class TimingGraph:
    """A levelized pin-level timing graph for one flat netlist.

    Attributes:
        arrays: The flat form the graph was built from.  A master
            patch (:meth:`NetlistArrays.patch_instance_master`) keeps
            the topology, so the graph stays valid across it.
        num_nodes: Number of pin nodes.
        node_owner: Per-node owner instance index (-1 for a port).
        node_pin_name: Per-node interned pin / port name id (an index
            into ``arrays.name_pool``).
        startpoints: Node ids where timing paths begin.
        endpoints: Node ids where timing paths end.
        topo_order: Node ids in topological order (after levelize()).
        levels: Per-node longest-path depth (wave index) as a NumPy
            array, filled by :meth:`levelize`.
    """

    def __init__(self, arrays: NetlistArrays) -> None:
        self.arrays = arrays
        self.num_nodes = 0
        self.node_owner: Optional[np.ndarray] = None
        self.node_pin_name: Optional[np.ndarray] = None
        self._wire_in: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.startpoints: List[int] = []
        self.endpoints: List[int] = []
        self.topo_order: List[int] = []
        self.levels: Optional[np.ndarray] = None
        # Flat arc arrays (filled by the build, wire arcs then cell arcs):
        #: driver node per driven non-clock net, aligned with _w_net/_w_cnt.
        self._w_src: Optional[np.ndarray] = None
        self._w_dst: Optional[np.ndarray] = None  # per wire arc
        self._w_net: Optional[np.ndarray] = None  # net index per driven net
        self._w_cnt: Optional[np.ndarray] = None  # sink count per driven net
        self._c_src: Optional[np.ndarray] = None  # per cell arc
        self._c_out_node: Optional[np.ndarray] = None  # per (inst, output)
        self._c_out_net: Optional[np.ndarray] = None
        self._c_out_inst: Optional[np.ndarray] = None
        self._c_nin: Optional[np.ndarray] = None  # inputs per (inst, output)
        #: The flat compilation held by :func:`repro.sta.flat.flat_for`.
        self._flat = None
        self._build_arrays()
        self.levelize()

    # ------------------------------------------------------------------
    def node_name(self, node_id: int) -> str:
        """Human-readable pin name, e.g. ``u_a/U3.Y`` or port name."""
        owner = int(self.node_owner[node_id])
        pin = self.arrays.name_pool[int(self.node_pin_name[node_id])]
        if owner < 0:
            return pin
        return f"{self.arrays.inst_names[owner]}.{pin}"

    def pin_nodes(self, rows: np.ndarray) -> np.ndarray:
        """Node id of each pin row of :attr:`arrays`; -1 where the pin
        has no node.  Looks the build's composite pin keys up in the
        sorted node keys, so no per-pin map is needed."""
        keys = _pin_keys(self.arrays, rows)
        if not self.num_nodes:
            return np.full(len(keys), -1, dtype=np.int64)
        pool_size = len(self.arrays.name_pool)
        node_keys = (self.node_owner + 1) * pool_size + self.node_pin_name
        order = np.argsort(node_keys)
        pos = np.minimum(np.searchsorted(node_keys[order], keys), len(order) - 1)
        found = node_keys[order[pos]] == keys
        return np.where(found, order[pos], -1)

    def wire_in_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node (driver node, net index) of the first wire in-arc.

        ``-1`` where a node has no wire in-arc.  Lets path backtracking
        resolve a hop's net without an adjacency list.
        """
        if self._wire_in is None:
            n = self.num_nodes
            wsrc = np.full(n, -1, dtype=np.int64)
            wnet = np.full(n, -1, dtype=np.int64)
            dst_rev = self._w_dst[::-1]
            # Reversed assignment: the first wire arc into a node wins,
            # matching the scalar scan's first-match semantics.
            wsrc[dst_rev] = np.repeat(self._w_src, self._w_cnt)[::-1]
            wnet[dst_rev] = np.repeat(self._w_net, self._w_cnt)[::-1]
            self._wire_in = (wsrc, wnet)
        return self._wire_in

    def _build_arrays(self) -> None:
        """Array-native graph construction from the CSR form.

        Reproduces the object-graph walk kept as the tests' oracle
        (``tests/sta/reference.py``) bit for bit — node ids, arc order,
        startpoint/endpoint order — without touching the object graph.
        The trick is node-id assignment: the walk numbers nodes by
        first occurrence in its visitation sequence (all ports, then
        wire pins net-major with driver first, then cell pins
        instance-major).  Inside one combinational instance its
        ``out0, in..., out1, in...(dup)`` walk has first occurrences
        ``out0, in..., out1..`` — so the equivalent flat sequence is
        built by ordering each instance's connected pins by (section,
        declaration slot) with sections ``first-out=0, inputs=1,
        remaining outs=2`` (sequential cells: ``outs=0, inputs=1``).
        One global ``np.unique`` then ranks keys by first position to
        mint the identical ids.
        """

        arrays = self.arrays
        clock_port = arrays.current_scalar("clock_port")
        pool_size = len(arrays.name_pool)
        pin_key = _pin_keys(arrays, slice(None))

        # Phase A: every port gets a node, insertion order.
        port_keys = arrays.port_name_idx.astype(np.int64)

        # Phase B: wire pins of driven non-clock nets, net-major,
        # driver first (the stored pin order).
        wnet = np.flatnonzero(arrays.net_has_driver & ~arrays.net_is_clock)
        wcounts = arrays.net_degree[wnet]
        wire_keys = pin_key[multi_arange(arrays.net_ptr[wnet], wcounts)]

        # Phase C: cell pins.  Start from the instance->connection CSR
        # (rows sorted by instance then declaration slot), dedupe
        # multiply-connected pins keeping the *last* connection (the
        # reference reads ``pin_nets``, where the last connect wins).
        _iptr, irows = arrays.instance_pin_csr()
        ri = arrays.pin_inst[irows]
        rs = arrays.pin_slot[irows]
        if len(irows):
            keep_last = np.concatenate(
                ((ri[1:] != ri[:-1]) | (rs[1:] != rs[:-1]), [True])
            )
        else:
            keep_last = np.zeros(0, dtype=bool)
        drows = irows[keep_last]
        d_inst = ri[keep_last]
        d_key = pin_key[drows]
        d_dir = arrays.pin_dir[drows]
        is_out = d_dir == DIR_OUTPUT
        is_in = (d_dir == DIR_INPUT) & ~arrays.pin_is_clockpin[drows]
        d_net = arrays.pin_net()[drows]
        inst_seq = (
            arrays.m_is_seq[arrays.inst_master]
            if arrays.num_instances
            else np.zeros(0, dtype=bool)
        )
        row_seq = inst_seq[d_inst] if len(d_inst) else np.zeros(0, dtype=bool)
        n_out = np.bincount(
            d_inst[is_out], minlength=arrays.num_instances
        )
        # Combinational instances without connected outputs contribute
        # no nodes at all; clock pins / inouts never do.
        keep = (is_out | is_in) & (row_seq | (n_out[d_inst] > 0))
        k_inst = d_inst[keep]
        k_key = d_key[keep]
        k_out = is_out[keep]
        k_seq = row_seq[keep]
        k_net = d_net[keep]
        # First connected output per instance (rows are slot-ordered;
        # k_inst is sorted, so group starts are run boundaries).
        oc = np.cumsum(k_out)
        if len(k_inst):
            new_group = np.concatenate(([True], k_inst[1:] != k_inst[:-1]))
            group_start = np.flatnonzero(new_group)[np.cumsum(new_group) - 1]
        else:
            group_start = np.zeros(0, dtype=np.int64)
        prior = np.where(group_start > 0, oc[np.maximum(group_start - 1, 0)], 0)
        first_out = k_out & ((oc - prior) == 1)
        section = np.where(
            k_out & (k_seq | first_out), 0, np.where(k_out, 2, 1)
        )
        # Stable sort of the composite (instance, section) key ==
        # lexsort((arange, section, k_inst)).
        seq_order = np.argsort(
            k_inst.astype(np.int64) * 4 + section, kind="stable"
        )
        cell_keys = k_key[seq_order]

        # Global first-occurrence node ids over the full visitation
        # sequence.
        all_keys = np.concatenate((port_keys, wire_keys, cell_keys))
        uniq, first_pos, inverse = np.unique(
            all_keys, return_index=True, return_inverse=True
        )
        rank = np.argsort(first_pos, kind="stable")
        id_of = np.empty(len(uniq), dtype=np.int64)
        id_of[rank] = np.arange(len(uniq), dtype=np.int64)
        all_ids = id_of[inverse]
        n_port = len(port_keys)
        n_wire = len(wire_keys)
        port_ids = all_ids[:n_port]
        #: Per-row node id of k_key (undo the seq_order permutation).
        k_ids = np.empty(len(k_key), dtype=np.int64)
        k_ids[seq_order] = all_ids[n_port + n_wire :]

        self.num_nodes = len(uniq)
        ordered_keys = uniq[rank]
        self.node_owner = (ordered_keys // pool_size) - 1
        self.node_pin_name = ordered_keys % pool_size

        # Wire arc arrays.
        wire_ids = all_ids[n_port : n_port + n_wire]
        span_starts = np.concatenate(([0], np.cumsum(wcounts)))[:-1].astype(
            np.int64
        )
        is_driver_pos = np.zeros(len(wire_keys), dtype=bool)
        is_driver_pos[span_starts] = True
        self._w_src = wire_ids[span_starts]
        self._w_dst = wire_ids[~is_driver_pos]
        self._w_net = wnet
        self._w_cnt = wcounts - 1

        # Cell arc arrays (combinational instances, output-major,
        # inputs in declaration order — identical to the reference's
        # nested loops).
        comb_in = ~k_seq & ~k_out
        comb_out = ~k_seq & k_out
        in_ids = k_ids[comb_in]
        in_counts = np.bincount(
            k_inst[comb_in], minlength=arrays.num_instances
        )
        in_starts = np.concatenate(([0], np.cumsum(in_counts)))[:-1]
        out_inst = k_inst[comb_out]
        out_ids = k_ids[comb_out]
        out_nets = k_net[comb_out]
        self._c_src = in_ids[
            multi_arange(in_starts[out_inst], in_counts[out_inst])
        ]
        has_in = in_counts[out_inst] > 0
        self._c_out_node = out_ids[has_in]
        self._c_out_net = out_nets[has_in]
        self._c_out_inst = out_inst[has_in]
        self._c_nin = in_counts[out_inst][has_in]

        # Startpoints / endpoints: sequential pins instance-major, then
        # ports in insertion order (matching the reference's two loops).
        self.startpoints = k_ids[k_seq & k_out].tolist()
        self.endpoints = k_ids[k_seq & ~k_out].tolist()
        is_input = arrays.port_dir == DIR_INPUT
        not_clock = np.ones(arrays.num_ports, dtype=bool)
        port_names = arrays.port_names
        if clock_port is not None and clock_port in port_names:
            not_clock[port_names.index(clock_port)] = False
        self.startpoints.extend(port_ids[is_input & not_clock].tolist())
        self.endpoints.extend(port_ids[~is_input].tolist())

    # ------------------------------------------------------------------
    def flat_arc_arrays(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """(src, dst, num_wire_arcs): arcs in creation order."""
        src = np.concatenate(
            (np.repeat(self._w_src, self._w_cnt), self._c_src)
        )
        dst = np.concatenate(
            (self._w_dst, np.repeat(self._c_out_node, self._c_nin))
        )
        return src, dst, len(self._w_dst)

    def levelize(self) -> None:
        """Topologically order the nodes; raises on combinational loops.

        Vectorized Kahn waves that reproduce the FIFO deque order
        exactly: within a wave, nodes are ordered by the position of
        the arc that zeroed their in-degree in the wave's arc stream.
        Also fills :attr:`levels` (longest-path depth per node).
        """
        n = self.num_nodes
        src, dst, _nw = self.flat_arc_arrays()
        m = len(src)
        level = np.zeros(n, dtype=np.int64)
        if m == 0:
            self.topo_order = list(range(n))
            self.levels = level
            return
        indeg = np.bincount(dst, minlength=n)
        order_arcs = np.argsort(src, kind="stable")
        sdst = dst[order_arcs]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        frontier = np.flatnonzero(indeg == 0)
        chunks: List[np.ndarray] = [frontier]
        done = len(frontier)
        lvl = 0
        while len(frontier):
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            arc_idx = multi_arange(starts, counts)
            if not len(arc_idx):
                break
            dsts = sdst[arc_idx]
            np.subtract.at(indeg, dsts, 1)
            # FIFO order within the next wave: position of the *last*
            # decrement of each node in this wave's arc stream.
            rev = dsts[::-1]
            uniq, rev_first = np.unique(rev, return_index=True)
            ready = indeg[uniq] == 0
            nodes = uniq[ready]
            last_pos = (len(dsts) - 1) - rev_first[ready]
            nodes = nodes[np.argsort(last_pos)]
            lvl += 1
            level[nodes] = lvl
            chunks.append(nodes)
            done += len(nodes)
            frontier = nodes
        if done != n:
            remaining = [self.node_name(v) for v in np.flatnonzero(indeg > 0)]
            raise ValueError(
                f"combinational loop detected among {len(remaining)} pins, "
                f"e.g. {remaining[:4]}"
            )
        self.topo_order = np.concatenate(chunks).tolist()
        self.levels = level

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        num_arcs = len(self._w_dst) + len(self._c_src)
        return (
            f"TimingGraph(nodes={self.num_nodes}, arcs={num_arcs}, "
            f"starts={len(self.startpoints)}, ends={len(self.endpoints)})"
        )


#: Object views (``NetlistArrays.design``) that have had a graph built:
#: another build for one of them follows a structural edit that rebuilt
#: its flat form, and counts ``sta.graph.recompiled``.  Weak, so it
#: keeps no design alive.
_HAD_GRAPH = weakref.WeakSet()


def timing_graph_for(arrays: NetlistArrays) -> TimingGraph:
    """The timing graph of a flat netlist, built once per flat form.

    The graph depends only on connectivity, so one graph per form is
    shared between the clustering stage and the post-route evaluation
    (placement moves only change the wire model's answers).  It lives
    on the form (``NetlistArrays.timing_graph``): a structural edit
    makes ``design.arrays()`` a new form, which builds its own graph,
    and a master patch keeps the form and its graph.  A pickle or copy
    of a design carries no form, so no graph.
    """
    graph = arrays.timing_graph
    if graph is None:
        owner = arrays.design
        if owner is not None:
            if owner in _HAD_GRAPH:
                obs.count("sta.graph.recompiled")
            _HAD_GRAPH.add(owner)
        graph = arrays.timing_graph = TimingGraph(arrays)
    return graph
