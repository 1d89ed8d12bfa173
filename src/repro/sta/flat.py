"""Flattened (array-form) timing graph for vectorized STA.

:class:`FlatTiming` compiles a :class:`~repro.sta.graph.TimingGraph`
into NumPy arrays once per graph, so that every subsequent timing
update — arrival/required propagation, hold analysis, activity
propagation — runs as a handful of wave-sliced array kernels instead
of per-arc Python loops.  :func:`flat_for` keeps the compilation on the
graph (``TimingGraph._flat``), as :func:`~repro.sta.graph.timing_graph_for`
keeps the graph on its design: each cache dies with its owner, and no
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

Static per-design quantities (master-cell delays, pin capacitances,
port coordinates, per-net static pin-cap sums) are captured at compile
time.  Mutating masters afterwards (gate sizing) must call
:func:`invalidate_flat` on the graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.arrays import multi_arange
from repro.netlist.design import Design
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
        design = graph.design
        self.design = design
        n = graph.num_nodes
        self.num_nodes = n
        info = graph.info
        ports = design.ports

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
        instances = design.instances
        out_inst = graph._c_out_inst.tolist()
        n_out = len(out_inst)
        intr_out = np.fromiter(
            (instances[i].master.intrinsic_delay for i in out_inst),
            dtype=np.float64,
            count=n_out,
        )
        drive_out = np.fromiter(
            (instances[i].master.drive_resistance for i in out_inst),
            dtype=np.float64,
            count=n_out,
        )
        zero_w = np.zeros(nw)
        self.a_intrinsic = np.concatenate((zero_w, np.repeat(intr_out, graph._c_nin)))
        self.a_drive = np.concatenate((zero_w, np.repeat(drive_out, graph._c_nin)))
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
        self.s_nodes = np.asarray(graph.startpoints, dtype=np.int64)
        s_launch = []
        s_isport = []
        for s in graph.startpoints:
            inst, _pin = info(s)
            if inst is None:
                s_launch.append(0.0)
                s_isport.append(True)
            else:
                s_launch.append(inst.master.clk_to_q)
                s_isport.append(False)
        self.s_launch = np.asarray(s_launch, dtype=np.float64)
        self.s_isport = np.asarray(s_isport, dtype=bool)

        self.e_nodes = np.asarray(graph.endpoints, dtype=np.int64)
        e_setup = []
        e_isseq = []
        e_hold = []
        for e in graph.endpoints:
            inst, _pin = info(e)
            if inst is None:
                e_setup.append(0.0)
                e_isseq.append(False)
                e_hold.append(0.0)
            else:
                e_setup.append(inst.master.setup_time)
                e_isseq.append(inst.master.is_sequential)
                e_hold.append(inst.master.hold_time)
        self.e_setup = np.asarray(e_setup, dtype=np.float64)
        self.e_isseq = np.asarray(e_isseq, dtype=bool)
        self.e_hold = np.asarray(e_hold, dtype=np.float64)

        # Startpoint launch template (full update applies it with
        # maximum.at, exactly matching the scalar max-init loop).
        init = np.full(n, -np.inf)
        if len(self.s_nodes):
            np.maximum.at(init, self.s_nodes, self.s_launch)
        self.init_arrival = init

        # -- per-net tables ------------------------------------------------
        num_nets = len(design.nets)
        self.num_nets = num_nets
        pincap = np.zeros(num_nets, dtype=np.float64)
        fanout = np.zeros(num_nets, dtype=np.int64)
        pin_counts = np.zeros(num_nets, dtype=np.int64)
        pin_inst: List[int] = []
        pin_px: List[float] = []
        pin_py: List[float] = []
        drv_inst = np.full(num_nets, -1, dtype=np.int64)
        drv_px = np.zeros(num_nets, dtype=np.float64)
        drv_py = np.zeros(num_nets, dtype=np.float64)
        drv_node = np.full(num_nets, -1, dtype=np.int64)
        net_is_clock = np.zeros(num_nets, dtype=bool)
        csink_wire: List[float] = []
        node_of = graph._node_of
        # Pin capacitances are per-(master, pin) constants; memoizing
        # them skips the attribute chain PinRef.capacitance walks for
        # every sink of every net.
        cap_memo: Dict[Tuple[int, str], float] = {}
        for net in design.nets:
            ni = net.index
            is_clock = net.is_clock
            net_is_clock[ni] = is_clock
            fanout[ni] = net.fanout
            caps = []
            for s in net.sinks:
                inst = s.instance
                if inst is None:
                    caps.append(ports[s.pin_name].capacitance)
                    continue
                ck = (id(inst.master), s.pin_name)
                c = cap_memo.get(ck)
                if c is None:
                    c = inst.master.pins[s.pin_name].capacitance
                    cap_memo[ck] = c
                caps.append(c)
            # Same sequential Python sum as WireDelayModel.net_load.
            pincap[ni] = sum(caps)
            if net.driver is not None and not is_clock:
                # net order == wire-arc creation order (graph builder).
                csink_wire.extend(caps)
            count = 0
            for ref in net.pins():
                count += 1
                if ref.instance is None:
                    port = ports[ref.pin_name]
                    pin_inst.append(-1)
                    pin_px.append(port.x)
                    pin_py.append(port.y)
                else:
                    pin_inst.append(ref.instance.index)
                    pin_px.append(0.0)
                    pin_py.append(0.0)
            pin_counts[ni] = count
            if net.driver is not None:
                ref = net.driver
                key = (
                    ref.instance.index if ref.instance is not None else None,
                    ref.pin_name,
                )
                node = node_of.get(key)
                # Driver pins without a graph node (e.g. tie cells with
                # no input arcs) map to a virtual zero-activity slot at
                # index n, matching the scalar node_for_ref fallback.
                drv_node[ni] = node if node is not None else n
                if ref.instance is None:
                    port = ports[ref.pin_name]
                    drv_px[ni] = port.x
                    drv_py[ni] = port.y
                else:
                    drv_inst[ni] = ref.instance.index
        self.net_pincap = pincap
        self.net_fanout = fanout
        self.net_is_clock = net_is_clock
        self.pin_indptr = np.concatenate(
            ([0], np.cumsum(pin_counts))
        ).astype(np.int64)
        self.pin_inst = np.asarray(pin_inst, dtype=np.int64)
        self.pin_px = np.asarray(pin_px, dtype=np.float64)
        self.pin_py = np.asarray(pin_py, dtype=np.float64)
        self.drv_inst = drv_inst
        self.drv_px = drv_px
        self.drv_py = drv_py
        self.drv_node = drv_node

        # -- wire-arc sink tables (from the pin CSR: sinks of a driven
        # net are its pins after the leading driver entry) ----------------
        neg_c = np.full(mc, -1, dtype=np.int64)
        zero_c = np.zeros(mc)
        sink_pins = multi_arange(self.pin_indptr[graph._w_net] + 1, graph._w_cnt)
        self.a_csink = np.concatenate(
            (np.asarray(csink_wire, dtype=np.float64), zero_c)
        )
        self.a_sink_inst = np.concatenate((self.pin_inst[sink_pins], neg_c))
        self.a_sink_px = np.concatenate((self.pin_px[sink_pins], zero_c))
        self.a_sink_py = np.concatenate((self.pin_py[sink_pins], zero_c))

        # -- activity tables (per dst node) --------------------------------
        from repro.sta.activity import TRANSFER_FACTORS

        factor = np.full(n, 0.6, dtype=np.float64)
        cell_cnt = np.zeros(n, dtype=np.int64)
        if n_out:
            factor[graph._c_out_node] = np.fromiter(
                (
                    TRANSFER_FACTORS.get(instances[i].master.cell_class, 0.6)
                    for i in out_inst
                ),
                dtype=np.float64,
                count=n_out,
            )
            cell_cnt[graph._c_out_node] = graph._c_nin
        self.act_factor = factor
        self.cell_in_cnt = cell_cnt

    # ------------------------------------------------------------------
    def instance_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current instance centre coordinates (fresh gather)."""
        instances = self.design.instances
        count = len(instances)
        xs = np.fromiter((i.x for i in instances), dtype=np.float64, count=count)
        ys = np.fromiter((i.y for i in instances), dtype=np.float64, count=count)
        return xs, ys

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
        # RoutedWireModel
        routed = np.full(len(hpwl), np.nan)
        for ni, length in model.routed_lengths.items():
            if 0 <= ni < len(routed):
                routed[ni] = length
        has = ~np.isnan(routed)
        wl = np.where(has, routed, hpwl)
        return wl, hpwl

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
        :func:`repro.sta.delay.effective_cell_delay` and
        :meth:`WireDelayModel.wire_delay` so results are bit-identical
        to the scalar path.
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
                    routed = np.full(len(widx), np.nan)
                    rl = model.routed_lengths
                    for i, ni in enumerate(nets.tolist()):
                        length = rl.get(ni)
                        if length is not None:
                            routed[i] = length
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


def flat_for(graph: TimingGraph) -> FlatTiming:
    """Cached flat compilation of a timing graph (held on the graph, so
    it dies with it)."""
    flat = graph._flat
    if flat is None:
        flat = graph._flat = FlatTiming(graph)
    return flat


def invalidate_flat(graph: TimingGraph) -> None:
    """Drop the cached compilation (call after mutating master cells)."""
    graph._flat = None
