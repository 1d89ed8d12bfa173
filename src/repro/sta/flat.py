"""Flattened (array-form) timing graph for vectorized STA.

:class:`FlatTiming` compiles a :class:`~repro.sta.graph.TimingGraph`
into NumPy arrays once per graph, so that every subsequent timing
update — arrival/required propagation, hold analysis, activity
propagation — runs as a handful of wave-sliced array kernels instead
of per-arc Python loops.  :func:`flat_for` keeps the compilation on the
graph (``TimingGraph._flat``), as :func:`~repro.sta.graph.timing_graph_for`
keeps the graph on its flat form: each cache dies with its owner, and no
module-level table outlives a finished flow.

Bit-identity contract
---------------------

The vectorized kernels in :mod:`repro.sta.analysis` must reproduce the
scalar reference propagation (the per-arc Python oracle in
``tests/sta/reference.py``) *bit for bit*.  The compilation therefore
preserves the exact evaluation-order semantics of the scalar code:

* max/min reductions are order-insensitive (no FP rounding), so wave
  reductions may use ``np.maximum.reduceat`` freely;
* order-sensitive *sums* (e.g. activity input accumulation) must use
  ``np.add.at``/``np.bincount`` over arrays sorted in the scalar
  visitation order — these accumulate sequentially in array order,
  unlike ``np.add.reduceat``/``np.sum`` which use pairwise summation;
* the forward worst-predecessor tie-break replicates the scalar
  "strict improvement" rule: the predecessor recorded for a node is
  the *first* arc, in scalar visitation order ``(rank(src), arc
  creation order)``, that attains the segment maximum — and only when
  that maximum strictly exceeds the node's startpoint launch value.

The compilation reads only the graph's flat arrays and the
:class:`~repro.netlist.arrays.NetlistArrays` it was built from: node
owners and pin-name ids, the net -> pin CSR, pin capacitances and the
master columns (``m_intrinsic`` / ``m_drive`` / ``m_clk_to_q`` /
``m_setup`` / ``m_hold`` / ``m_is_seq``, cell classes).

Static per-netlist quantities (master-cell delays, pin capacitances,
port coordinates, per-net static pin-cap sums) are captured at compile
time.  A master swap (gate sizing) patches the form's master columns in
place — :meth:`Design.replace_master` does, an out-of-API
``inst.master = ...`` must call
:meth:`NetlistArrays.patch_instance_master` — and every patch bumps
``NetlistArrays.master_version``, which :func:`flat_for` compares: the
next STA call recompiles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.netlist.arrays import multi_arange
from repro.sta.delay import (
    BUFFER_STAGE_DELAY_NS,
    BUFFERED_LOAD_FF,
    RC_NS,
    FanoutWireModel,
    PlacementWireModel,
    RoutedWireModel,
    WireDelayModel,
)
from repro.sta.graph import TimingGraph

#: The wire models the flat kernels implement (matched by exact type).
WIRE_MODELS = (FanoutWireModel, PlacementWireModel, RoutedWireModel)


class FlatTiming:
    """Array form of one timing graph (see module docstring)."""

    def __init__(self, graph: TimingGraph) -> None:
        self.graph = graph
        arrays = graph.arrays
        self.arrays = arrays
        #: The master patches these tables include.
        self.master_version = arrays.master_version
        n = graph.num_nodes
        self.num_nodes = n

        # -- per-arc arrays, in creation-enumeration order ----------------
        # Assembled from the flat pieces the graph builder recorded:
        # wire arcs (net-major) first, then cell arcs (out-major).
        a_src, a_dst, nw = graph.flat_arc_arrays()
        m = len(a_src)
        self.num_arcs = m
        mc = m - nw
        self.a_src = a_src
        self.a_dst = a_dst
        self.a_iswire = np.arange(m) < nw
        self.a_wire_net = np.concatenate(
            (np.repeat(graph._w_net, graph._w_cnt), np.full(mc, -1, dtype=np.int64))
        )
        self.a_load_net = np.concatenate(
            (np.full(nw, -1, dtype=np.int64), np.repeat(graph._c_out_net, graph._c_nin))
        )
        out_master = arrays.inst_master[graph._c_out_inst]
        zero_w = np.zeros(nw)
        self.a_intrinsic = np.concatenate(
            (zero_w, np.repeat(arrays.m_intrinsic[out_master], graph._c_nin))
        )
        self.a_drive = np.concatenate(
            (zero_w, np.repeat(arrays.m_drive[out_master], graph._c_nin))
        )
        # The activity kernel depends on per-node arc-kind homogeneity;
        # the connect() API cannot produce a pin fed by both kinds.
        mixed = np.intersect1d(self.a_dst[:nw], graph._c_out_node)
        if len(mixed):
            raise ValueError(
                f"pin {graph.node_name(int(mixed[0]))} has both wire and "
                "cell input arcs (an output pin listed as a net sink)"
            )

        # -- topological rank and wave levels -----------------------------
        rank = np.empty(n, dtype=np.int64)
        rank[np.asarray(graph.topo_order, dtype=np.int64)] = np.arange(n)
        self.rank = rank
        self.level = graph.levels

        # -- forward (pred) CSR: sorted by (level(dst), dst, rank(src)) ---
        # lexsort is stable, so equal keys keep creation order — the
        # scalar per-dst visitation order is (rank(src), creation idx).
        order_f = np.lexsort((rank[self.a_src], self.a_dst, self.level[self.a_dst]))
        self.order_f = order_f
        self.f_src = self.a_src[order_f]
        self.f_dst = self.a_dst[order_f]
        self.f_iswire = self.a_iswire[order_f]
        lvl_f = self.level[self.f_dst]
        max_lvl = int(self.level.max()) if n else 0
        self.max_level = max_lvl
        #: arc range [wave_f[L], wave_f[L + 1]) holds arcs into level-L dsts.
        self.wave_f = np.searchsorted(lvl_f, np.arange(max_lvl + 2))
        # dst segment starts (global indices into the fwd order).
        if m:
            seg = np.flatnonzero(np.concatenate(([True], self.f_dst[1:] != self.f_dst[:-1])))
        else:
            seg = np.empty(0, dtype=np.int64)
        self.seg_f = seg
        #: segment range per wave: seg_f[wave_seg_f[L]:wave_seg_f[L+1]].
        self.wave_seg_f = np.searchsorted(seg, self.wave_f)

        # -- backward (succ) CSR: sorted by (level(src), src) -------------
        order_b = np.lexsort((self.a_src, self.level[self.a_src]))
        self.order_b = order_b
        self.b_src = self.a_src[order_b]
        self.b_dst = self.a_dst[order_b]
        lvl_b = self.level[self.b_src]
        self.wave_b = np.searchsorted(lvl_b, np.arange(max_lvl + 2))
        if m:
            segb = np.flatnonzero(np.concatenate(([True], self.b_src[1:] != self.b_src[:-1])))
        else:
            segb = np.empty(0, dtype=np.int64)
        self.seg_b = segb
        self.wave_seg_b = np.searchsorted(segb, self.wave_b)

        # -- endpoint / startpoint tables (list order preserved) ----------
        # Master columns gathered per node owner; a port (owner -1)
        # reads the appended row, so it launches at 0, needs no setup
        # or hold, and is not sequential.
        owner_master = np.append(arrays.inst_master, len(arrays.master_names))

        def by_owner(column: np.ndarray, port_value, nodes: np.ndarray) -> np.ndarray:
            return np.append(column, port_value)[owner_master[graph.node_owner[nodes]]]

        self.s_nodes = np.asarray(graph.startpoints, dtype=np.int64)
        self.s_launch = by_owner(arrays.m_clk_to_q, 0.0, self.s_nodes)
        self.s_isport = graph.node_owner[self.s_nodes] < 0
        self.e_nodes = np.asarray(graph.endpoints, dtype=np.int64)
        self.e_setup = by_owner(arrays.m_setup, 0.0, self.e_nodes)
        self.e_isseq = by_owner(arrays.m_is_seq, False, self.e_nodes)
        self.e_hold = by_owner(arrays.m_hold, 0.0, self.e_nodes)

        # Startpoint launch template (full update applies it with
        # maximum.at, exactly matching the scalar max-init loop).
        init = np.full(n, -np.inf)
        if len(self.s_nodes):
            np.maximum.at(init, self.s_nodes, self.s_launch)
        self.init_arrival = init

        # -- per-net tables (the net -> pin CSR, driver row first) --------
        num_nets = arrays.num_nets
        self.num_nets = num_nets
        ptr = arrays.net_ptr
        has_driver = arrays.net_has_driver
        drv_rows = ptr[:-1][has_driver]
        is_sink = np.ones(arrays.num_pins, dtype=bool)
        is_sink[drv_rows] = False
        sink_rows = np.flatnonzero(is_sink)
        # bincount accumulates in row order: the walk's sequential sum
        # of sink pin caps, net by net.
        self.net_pincap = np.bincount(
            arrays.pin_net()[sink_rows],
            weights=arrays.pin_cap[sink_rows],
            minlength=num_nets,
        )
        self.net_fanout = arrays.net_fanout
        self.net_is_clock = arrays.net_is_clock
        self.net_has_driver = has_driver
        self.pin_indptr = ptr
        self.pin_inst = arrays.pin_inst
        port_x, port_y = arrays.current_port_xy()
        port = arrays.pin_port
        is_port = port >= 0
        self.pin_px = np.where(is_port, np.append(port_x, 0.0)[port], 0.0)
        self.pin_py = np.where(is_port, np.append(port_y, 0.0)[port], 0.0)
        self.drv_inst = np.full(num_nets, -1, dtype=np.int64)
        self.drv_inst[has_driver] = arrays.pin_inst[drv_rows]
        self.drv_px = np.zeros(num_nets, dtype=np.float64)
        self.drv_px[has_driver] = self.pin_px[drv_rows]
        self.drv_py = np.zeros(num_nets, dtype=np.float64)
        self.drv_py[has_driver] = self.pin_py[drv_rows]
        # Driver pins without a graph node (e.g. tie cells with no
        # input arcs) map to a virtual zero-activity slot at index n.
        drv_node = graph.pin_nodes(drv_rows)
        self.drv_node = np.full(num_nets, -1, dtype=np.int64)
        self.drv_node[has_driver] = np.where(drv_node >= 0, drv_node, n)

        # -- wire-arc sink tables (sinks of a driven net are its pins
        # after the leading driver entry) ---------------------------------
        neg_c = np.full(mc, -1, dtype=np.int64)
        zero_c = np.zeros(mc)
        sink_pins = multi_arange(ptr[graph._w_net] + 1, graph._w_cnt)
        self.a_csink = np.concatenate((arrays.pin_cap[sink_pins], zero_c))
        self.a_sink_inst = np.concatenate((self.pin_inst[sink_pins], neg_c))
        self.a_sink_px = np.concatenate((self.pin_px[sink_pins], zero_c))
        self.a_sink_py = np.concatenate((self.pin_py[sink_pins], zero_c))

        # -- activity tables (per dst node) --------------------------------
        from repro.sta.activity import TRANSFER_FACTORS

        master_factor = np.array(
            [TRANSFER_FACTORS.get(c, 0.6) for c in arrays.master_classes],
            dtype=np.float64,
        )
        factor = np.full(n, 0.6, dtype=np.float64)
        factor[graph._c_out_node] = master_factor[out_master]
        cell_cnt = np.zeros(n, dtype=np.int64)
        cell_cnt[graph._c_out_node] = graph._c_nin
        self.act_factor = factor
        self.cell_in_cnt = cell_cnt

    # ------------------------------------------------------------------
    def geometry(
        self, model: WireDelayModel
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Current instance centres (fresh gather); None for the
        placement-oblivious fanout model."""
        if type(model) is FanoutWireModel:
            return None, None
        return self.arrays.current_positions()

    # -- geometry ------------------------------------------------------
    def net_hpwl(self, inst_x: np.ndarray, inst_y: np.ndarray) -> np.ndarray:
        """HPWL per net."""
        counts = np.diff(self.pin_indptr)
        out = np.zeros(self.num_nets, dtype=np.float64)
        inst = self.pin_inst
        isport = inst < 0
        safe = np.where(isport, 0, inst)
        px = np.where(isport, self.pin_px, inst_x[safe])
        py = np.where(isport, self.pin_py, inst_y[safe])
        nonempty = np.flatnonzero(counts > 0)
        if len(nonempty) == 0:
            return out
        rs = self.pin_indptr[:-1][nonempty]
        xmax = np.maximum.reduceat(px, rs)
        xmin = np.minimum.reduceat(px, rs)
        ymax = np.maximum.reduceat(py, rs)
        ymin = np.minimum.reduceat(py, rs)
        out[nonempty] = (xmax - xmin) + (ymax - ymin)
        return out

    def wire_net_lengths(
        self,
        model: WireDelayModel,
        inst_x: Optional[np.ndarray],
        inst_y: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """(net_wirelength, placement_hpwl or None) per net.

        ``placement_hpwl`` is the un-overridden HPWL kept for the routed
        model's detour ratio.
        """
        t = type(model)
        if t is FanoutWireModel:
            wl = model.wl_per_fanout * np.maximum(1, self.net_fanout)
            return wl.astype(np.float64), None
        hpwl = self.net_hpwl(inst_x, inst_y)
        if t is PlacementWireModel:
            return hpwl, None
        routed = self.routed_per_net(model)
        wl = np.where(np.isnan(routed), hpwl, routed)
        return wl, hpwl

    def routed_per_net(self, model: RoutedWireModel) -> np.ndarray:
        """The routed model's lengths per net index, NaN where absent."""
        routed = np.full(self.num_nets, np.nan)
        lengths = model.routed_lengths
        nets = np.fromiter(lengths.keys(), dtype=np.int64, count=len(lengths))
        values = np.fromiter(lengths.values(), dtype=np.float64, count=len(lengths))
        keep = (nets >= 0) & (nets < self.num_nets)
        routed[nets[keep]] = values[keep]
        return routed

    def net_loads(
        self,
        model: WireDelayModel,
        inst_x: Optional[np.ndarray],
        inst_y: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """(driver load, placement_hpwl or None) per net: sink pin caps
        plus ``c_per_um`` times the wire length (fF)."""
        net_wl, net_hpwl = self.wire_net_lengths(model, inst_x, inst_y)
        return self.net_pincap + model.c_per_um * net_wl, net_hpwl

    def arc_delays(
        self,
        model: WireDelayModel,
        net_load: np.ndarray,
        net_hpwl: Optional[np.ndarray],
        inst_x: Optional[np.ndarray],
        inst_y: Optional[np.ndarray],
    ) -> np.ndarray:
        """Per-arc delays in enumeration order.

        Mirrors the exact elementwise expression order of
        :func:`repro.sta.delay.effective_cell_delay` and the per-sink
        Elmore wire delay of the tests' oracle, so results are
        bit-identical to the scalar path.
        """
        iswire = self.a_iswire
        wnet = self.a_wire_net
        lnet = self.a_load_net
        intrinsic = self.a_intrinsic
        drive = self.a_drive
        csink = self.a_csink
        sinst = self.a_sink_inst
        spx = self.a_sink_px
        spy = self.a_sink_py
        delay = np.zeros(self.num_arcs, dtype=np.float64)

        # -- wire arcs -------------------------------------------------
        widx = np.flatnonzero(iswire)
        if len(widx):
            t = type(model)
            if t is FanoutWireModel:
                dist = np.full(len(widx), float(model.wl_per_fanout))
            else:
                nets = wnet[widx]
                di = self.drv_inst[nets]
                dport = di < 0
                dsafe = np.where(dport, 0, di)
                xd = np.where(dport, self.drv_px[nets], inst_x[dsafe])
                yd = np.where(dport, self.drv_py[nets], inst_y[dsafe])
                si = sinst[widx]
                sport = si < 0
                ssafe = np.where(sport, 0, si)
                xs = np.where(sport, spx[widx], inst_x[ssafe])
                ys = np.where(sport, spy[widx], inst_y[ssafe])
                dist = np.abs(xd - xs) + np.abs(yd - ys)
                if t is RoutedWireModel and model.routed_lengths:
                    assert net_hpwl is not None
                    hp = net_hpwl[nets]
                    routed = self.routed_per_net(model)[nets]
                    scale = ~np.isnan(routed) & (hp > 0)
                    if scale.any():
                        detour = np.maximum(1.0, routed[scale] / hp[scale])
                        dist[scale] = dist[scale] * detour
            r_wire = model.r_per_um * dist
            c_wire = model.c_per_um * dist
            delay[widx] = (RC_NS * r_wire) * (0.5 * c_wire + csink[widx])

        # -- cell arcs -------------------------------------------------
        cidx = np.flatnonzero(~iswire)
        if len(cidx):
            ln = lnet[cidx]
            load = np.where(ln >= 0, net_load[np.where(ln >= 0, ln, 0)], 0.0)
            direct = np.minimum(load, BUFFERED_LOAD_FF)
            d = intrinsic[cidx] + drive[cidx] * direct
            big = load > BUFFERED_LOAD_FF
            if big.any():
                d[big] = d[big] + BUFFER_STAGE_DELAY_NS * np.log2(
                    load[big] / BUFFERED_LOAD_FF
                )
            delay[cidx] = d
        return delay


def check_wire_model(model: WireDelayModel) -> None:
    """Reject a wire model the flat kernels do not implement."""
    if type(model) not in WIRE_MODELS:
        raise TypeError(
            f"unsupported wire model {type(model).__name__}: "
            "the flat STA kernels implement exactly FanoutWireModel, "
            "PlacementWireModel and RoutedWireModel"
        )


def flat_for(graph: TimingGraph) -> FlatTiming:
    """Cached flat compilation of a timing graph (held on the graph, so
    it dies with it), recompiled after a master patch of its form."""
    flat = graph._flat
    if flat is None or flat.master_version != graph.arrays.master_version:
        flat = graph._flat = None  # free the stale tables before building
        flat = graph._flat = FlatTiming(graph)
    return flat
