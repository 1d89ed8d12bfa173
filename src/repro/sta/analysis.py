"""Arrival / required / slack propagation.

Single-clock setup analysis, matching how the paper's flow consumes
OpenSTA: launch at FF Q (clock edge at t=0 plus clk-to-q), capture at
FF D (next edge minus setup) and at output ports, worst-slack
propagation over the levelized graph.

One propagation engine: wave-sliced NumPy kernels over the
:mod:`repro.sta.flat` compilation, for the three built-in wire models
(any other :class:`WireDelayModel` is rejected at construction).  The
per-arc Python propagation it replaced is the tests' oracle
(``tests/sta/reference.py``), which the kernels must match bit for bit.

The analyzer also supports *incremental* updates: after
:meth:`TimingAnalyzer.invalidate_nets`, the next :meth:`update` only
re-evaluates the affected cone (levelized forward/backward worklists
seeded at the dirty nets' arcs) instead of the whole graph, recording
the arcs it skipped in the ``sta.incremental.*`` perf counters.
:class:`RoutedTiming` keeps one analyzer alive across successive
routings of one design and turns each new routing into such an update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro import obs
from repro.netlist.arrays import multi_arange
from repro.netlist.design import Net
from repro.sta.delay import FanoutWireModel, RoutedWireModel, WireDelayModel
from repro.sta.flat import FlatTiming, flat_for
from repro.sta.graph import TimingGraph, timing_graph_for

#: Clock period used when the design is unconstrained (effectively
#: infinite, so all slacks come out large and positive).
UNCONSTRAINED_PERIOD = 1e6


@dataclass
class TimingReport:
    """Results of one timing update.

    Attributes:
        wns: Worst negative slack over all endpoints (ns; positive when
            all constraints are met).
        tns: Total negative slack (ns; 0 when nothing fails).
        endpoint_slacks: Node id -> slack for every endpoint.
        arrival: Per-node arrival times (-inf where unreachable).
        required: Per-node required times (+inf where unconstrained).
        worst_pred: Per-node predecessor on the worst arrival path,
            used for critical-path backtracking.
    """

    wns: float
    tns: float
    endpoint_slacks: Dict[int, float] = field(default_factory=dict)
    arrival: List[float] = field(default_factory=list)
    required: List[float] = field(default_factory=list)
    worst_pred: List[int] = field(default_factory=list)

    @property
    def num_failing(self) -> int:
        """Number of endpoints with negative slack."""
        return sum(1 for s in self.endpoint_slacks.values() if s < 0)


class _FlatState:
    """Arrays carried between updates for incremental re-propagation."""

    __slots__ = (
        "sig",
        "period",
        "uncertainty",
        "delay",
        "delay_f",
        "delay_b",
        "net_wl",
        "net_hpwl",
        "net_load",
        "arrival",
        "required",
        "wp",
        "init_req",
    )


class TimingAnalyzer:
    """Propagates timing over a :class:`TimingGraph`.

    The analyzer is cheap to re-run after the placement moves: the
    graph is static, only the wire model's geometry answers change.
    """

    def __init__(
        self,
        graph: TimingGraph,
        wire_model: WireDelayModel,
        clock_uncertainty: float = 0.0,
    ) -> None:
        self.graph = graph
        self.wire_model = wire_model
        self._model_signature()  # rejects an unsupported wire model
        self.design = graph.design
        #: Uniform clock uncertainty (e.g. the CTS skew) subtracted
        #: from every endpoint's required time (ns).
        self.clock_uncertainty = clock_uncertainty
        self.report: Optional[TimingReport] = None
        #: Pending dirty-net set; None means "everything dirty" (the
        #: next update is a full update, which is also the default so
        #: that plain update() calls keep their original semantics).
        self._dirty: Optional[set] = None
        self._state: Optional[_FlatState] = None
        #: Structure fingerprint of the design the graph was compiled
        #: from; when it drifts (an ECO added/removed nets or cells)
        #: the next update recompiles the graph instead of propagating
        #: over stale topology.
        self._graph_key: tuple = self.design.structure_key()

    # ------------------------------------------------------------------
    def invalidate_nets(self, nets: Iterable[Union[int, Net]]) -> None:
        """Mark nets whose geometry changed since the last update.

        Arms the incremental path: the next :meth:`update` re-evaluates
        only the timing cone reachable from these nets' arcs, with
        results bit-identical to a full update.  Callers must
        invalidate every net whose wire geometry or load changed (for
        placement-based models: all nets touching a moved instance).
        """
        if self._dirty is None:
            self._dirty = set()
        for net in nets:
            self._dirty.add(net.index if isinstance(net, Net) else int(net))

    # ------------------------------------------------------------------
    def _clock_period(self) -> float:
        period = self.design.clock_period
        return period if period is not None else UNCONSTRAINED_PERIOD

    def _model_signature(self) -> tuple:
        """The wire model's flat-kernel signature; TypeError if it has none."""
        sig = FlatTiming.model_signature(self.wire_model)
        if sig is None:
            raise TypeError(
                f"unsupported wire model {type(self.wire_model).__name__}: "
                "the flat STA kernels implement exactly FanoutWireModel, "
                "PlacementWireModel and RoutedWireModel"
            )
        return sig

    # ------------------------------------------------------------------
    def update(self) -> TimingReport:
        """Run arrival/required propagation; returns the report.

        Full update by default; incremental (affected-cone only) when
        :meth:`invalidate_nets` was called since the last update.  Each
        update also appends one point to the ``sta.wns`` / ``sta.tns``
        telemetry streams (auto-stepped, so repeated updates — e.g.
        pre/post optimisation — trace a trajectory).
        """
        with obs.stage("sta.update", nodes=self.graph.num_nodes):
            report = self._update()
        obs.observe("sta.wns", report.wns)
        obs.observe("sta.tns", report.tns)
        obs.observe("sta.failing_endpoints", report.num_failing)
        return report

    def _refresh_graph(self) -> None:
        """Rebind to a freshly compiled graph after a topology edit.

        :meth:`invalidate_nets` covers geometry changes on a fixed
        graph; edits that *change the graph itself* (added / removed
        nets or instances) are detected here by comparing the design's
        structure key against the one the graph was compiled from.  The
        incremental state is dropped and the pending dirty set widened
        to "everything", so the next propagation is a full update over
        the new topology — equivalent to rebuilding the analyzer from
        scratch (asserted by tests/sta/test_incremental_topology.py).
        """
        key = self.design.structure_key()
        if key == self._graph_key:
            return
        self.graph = timing_graph_for(self.design)
        self._graph_key = key
        self._state = None
        self._dirty = None
        obs.count("sta.graph.recompiled")

    def _update(self) -> TimingReport:
        self._refresh_graph()
        dirty = self._dirty
        self._dirty = None
        flat = flat_for(self.graph)
        sig = self._model_signature()
        period = self._clock_period()
        state = self._state
        if (
            dirty is not None
            and state is not None
            and state.sig == sig
            and state.period == period
            and state.uncertainty == self.clock_uncertainty
        ):
            return self._update_incremental(flat, state, dirty)
        return self._update_vectorized(flat, sig, period)

    # -- vectorized full update ----------------------------------------
    def _geometry(self, flat: FlatTiming):
        """(inst_x, inst_y) when the model needs coordinates."""
        if type(self.wire_model) is FanoutWireModel:
            return None, None
        return flat.instance_coords()

    def _full_delays(self, flat: FlatTiming):
        """(net_wl, net_hpwl, net_load, arc delays) at the current geometry."""
        model = self.wire_model
        inst_x, inst_y = self._geometry(flat)
        net_wl, net_hpwl = flat.wire_net_lengths(model, inst_x, inst_y)
        net_load = flat.net_pincap + model.c_per_um * net_wl
        delay = flat.arc_delays(model, net_load, net_hpwl, inst_x, inst_y)
        return net_wl, net_hpwl, net_load, delay

    def forward_delays(self, flat: FlatTiming) -> np.ndarray:
        """Arc delays in ``flat``'s forward order (for min-propagation).

        The last update's vector when nothing was invalidated since,
        otherwise computed at the current geometry.
        """
        if self._state is not None and self._dirty is None:
            return self._state.delay_f
        *_, delay = self._full_delays(flat)
        return delay[flat.order_f]

    def _update_vectorized(
        self, flat: FlatTiming, sig: tuple, period: float
    ) -> TimingReport:
        net_wl, net_hpwl, net_load, delay = self._full_delays(flat)
        delay_f = delay[flat.order_f]
        delay_b = delay[flat.order_b]

        arrival, wp = self._forward_full(flat, delay_f)
        required, init_req = self._backward_full(flat, delay_b, period)

        state = _FlatState()
        state.sig = sig
        state.period = period
        state.uncertainty = self.clock_uncertainty
        state.delay = delay
        state.delay_f = delay_f
        state.delay_b = delay_b
        state.net_wl = net_wl
        state.net_hpwl = net_hpwl
        state.net_load = net_load
        state.arrival = arrival
        state.required = required
        state.wp = wp
        state.init_req = init_req
        self._state = state
        return self._finalize(flat, state, period)

    def _forward_full(self, flat: FlatTiming, delay_f: np.ndarray):
        n = flat.num_nodes
        m = flat.num_arcs
        init = flat.init_arrival
        arrival = init.copy()
        wp = np.full(n, -1, dtype=np.int64)
        fsrc = flat.f_src
        fdst = flat.f_dst
        for lvl in range(1, flat.max_level + 1):
            a0 = flat.wave_f[lvl]
            a1 = flat.wave_f[lvl + 1]
            if a0 == a1:
                continue
            starts = flat.seg_f[flat.wave_seg_f[lvl] : flat.wave_seg_f[lvl + 1]]
            local = starts - a0
            cand = arrival[fsrc[a0:a1]] + delay_f[a0:a1]
            segmax = np.maximum.reduceat(cand, local)
            vs = fdst[starts]
            iv = init[vs]
            counts = np.diff(np.append(starts, a1))
            pos = np.arange(a0, a1)
            hit = np.where(cand == np.repeat(segmax, counts), pos, m)
            first = np.minimum.reduceat(hit, local)
            choose = segmax > iv
            arrival[vs] = np.where(choose, segmax, iv)
            wp[vs] = np.where(choose, fsrc[first], -1)
        return arrival, wp

    def _backward_full(self, flat: FlatTiming, delay_b: np.ndarray, period: float):
        n = flat.num_nodes
        init_req = np.full(n, np.inf)
        if len(flat.e_nodes):
            ereq = (period - flat.e_setup) - self.clock_uncertainty
            np.minimum.at(init_req, flat.e_nodes, ereq)
        required = init_req.copy()
        bsrc = flat.b_src
        bdst = flat.b_dst
        for lvl in range(flat.max_level - 1, -1, -1):
            a0 = flat.wave_b[lvl]
            a1 = flat.wave_b[lvl + 1]
            if a0 == a1:
                continue
            starts = flat.seg_b[flat.wave_seg_b[lvl] : flat.wave_seg_b[lvl + 1]]
            local = starts - a0
            cand = required[bdst[a0:a1]] - delay_b[a0:a1]
            segmin = np.minimum.reduceat(cand, local)
            us = bsrc[starts]
            required[us] = np.minimum(init_req[us], segmin)
        return required, init_req

    def _finalize(
        self, flat: FlatTiming, state: _FlatState, period: float
    ) -> TimingReport:
        arrival = state.arrival
        required = state.required
        endpoint_slacks: Dict[int, float] = {}
        wns = math.inf
        tns = 0.0
        e = flat.e_nodes
        if len(e):
            arr_e = arrival[e]
            reach = arr_e != -np.inf
            slack = required[e] - arr_e
            kept = slack[reach]
            if len(kept):
                wns = float(kept.min())
                neg = kept[kept < 0]
                if len(neg):
                    tns = float(np.cumsum(neg)[-1])
            endpoint_slacks = dict(zip(e[reach].tolist(), kept.tolist()))
        if wns == math.inf:
            wns = period  # no constrained endpoints at all
        self.report = TimingReport(
            wns=wns,
            tns=tns,
            endpoint_slacks=endpoint_slacks,
            arrival=arrival.tolist(),
            required=required.tolist(),
            worst_pred=state.wp.tolist(),
        )
        return self.report

    # -- incremental update --------------------------------------------
    def _update_incremental(
        self, flat: FlatTiming, state: _FlatState, dirty: set
    ) -> TimingReport:
        obs.count("sta.incremental.updates")
        model = self.wire_model
        m = flat.num_arcs
        nets = np.asarray(sorted(dirty), dtype=np.int64)
        nets = nets[(nets >= 0) & (nets < flat.num_nets)]
        evaluated = 0
        if len(nets):
            inst_x, inst_y = self._subset_coords(flat, nets)
            wl, hp = flat.wire_net_lengths(model, inst_x, inst_y, nets)
            state.net_wl[nets] = wl
            if state.net_hpwl is not None:
                state.net_hpwl[nets] = hp if hp is not None else wl
            state.net_load[nets] = (
                flat.net_pincap[nets] + model.c_per_um * wl
            )
            warcs = flat.wnet_arcs[
                multi_arange(
                    flat.wnet_indptr[nets],
                    flat.wnet_indptr[nets + 1] - flat.wnet_indptr[nets],
                )
            ]
            carcs = flat.lnet_arcs[
                multi_arange(
                    flat.lnet_indptr[nets],
                    flat.lnet_indptr[nets + 1] - flat.lnet_indptr[nets],
                )
            ]
            affected = np.concatenate((warcs, carcs))
        else:
            affected = np.empty(0, dtype=np.int64)
        if len(affected):
            new_delay = flat.arc_delays(
                model,
                state.net_load,
                state.net_hpwl,
                inst_x,
                inst_y,
                arcs=affected,
            )
            state.delay[affected] = new_delay
            state.delay_f[flat.inv_f[affected]] = new_delay
            state.delay_b[flat.inv_b[affected]] = new_delay
            evaluated += self._forward_worklist(flat, state, affected)
            evaluated += self._backward_worklist(flat, state, affected)
        obs.count("sta.incremental.arcs_evaluated", evaluated)
        obs.count("sta.incremental.arcs_skipped", max(0, 2 * m - evaluated))
        return self._finalize(flat, state, state.period)

    def _subset_coords(self, flat: FlatTiming, nets: np.ndarray):
        """Sparse instance coordinates: only dirty nets' pins filled."""
        if type(self.wire_model) is FanoutWireModel:
            return None, None
        instances = self.design.instances
        inst_x = np.zeros(len(instances))
        inst_y = np.zeros(len(instances))
        starts = flat.pin_indptr[nets]
        counts = flat.pin_indptr[nets + 1] - starts
        pins = multi_arange(starts, counts)
        touched = np.unique(flat.pin_inst[pins])
        for i in touched.tolist():
            if i >= 0:
                inst = instances[i]
                inst_x[i] = inst.x
                inst_y[i] = inst.y
        return inst_x, inst_y

    @staticmethod
    def _bucket_by_level(
        nodes: np.ndarray,
        level: np.ndarray,
        pending: np.ndarray,
        buckets: List[List[np.ndarray]],
    ) -> None:
        """Queue not-yet-pending nodes into their per-level buckets."""
        fresh = nodes[~pending[nodes]]
        if not len(fresh):
            return
        pending[fresh] = True
        lv = level[fresh]
        order = np.argsort(lv, kind="stable")
        fresh = fresh[order]
        lv = lv[order]
        cuts = np.flatnonzero(np.concatenate(([True], lv[1:] != lv[:-1])))
        for i, c in enumerate(cuts):
            end = cuts[i + 1] if i + 1 < len(cuts) else len(fresh)
            buckets[lv[c]].append(fresh[c:end])

    def _forward_worklist(
        self, flat: FlatTiming, state: _FlatState, affected: np.ndarray
    ) -> int:
        arrival = state.arrival
        wp = state.wp
        init = flat.init_arrival
        level = flat.level
        fsrc = flat.f_src
        df = state.delay_f
        m = flat.num_arcs
        evaluated = 0
        pending = np.zeros(flat.num_nodes, dtype=bool)
        buckets: List[List[np.ndarray]] = [[] for _ in range(flat.max_level + 1)]
        self._bucket_by_level(
            np.unique(flat.a_dst[affected]), level, pending, buckets
        )
        for lvl in range(1, flat.max_level + 1):
            chunk = buckets[lvl]
            if not chunk:
                continue
            vs = np.concatenate(chunk) if len(chunk) > 1 else chunk[0]
            pending[vs] = False
            starts = flat.pred_start[vs]
            counts = flat.pred_end[vs] - starts
            idx = multi_arange(starts, counts)
            evaluated += len(idx)
            # Recompute from the full pred slice — identical semantics
            # (and tie-break) to one wave of the full forward sweep.
            cand = arrival[fsrc[idx]] + df[idx]
            loc = np.concatenate(([0], np.cumsum(counts)))[:-1]
            segmax = np.maximum.reduceat(cand, loc)
            hit = np.where(cand == np.repeat(segmax, counts), idx, m)
            first = np.minimum.reduceat(hit, loc)
            iv = init[vs]
            choose = segmax > iv
            new = np.where(choose, segmax, iv)
            wp[vs] = np.where(choose, fsrc[first], -1)
            changed = vs[new != arrival[vs]]
            arrival[vs] = new
            if len(changed):
                ss = flat.succ_start[changed]
                sc = flat.succ_end[changed] - ss
                succ = flat.b_dst[multi_arange(ss, sc)]
                if len(succ):
                    self._bucket_by_level(
                        np.unique(succ), level, pending, buckets
                    )
        return evaluated

    def _backward_worklist(
        self, flat: FlatTiming, state: _FlatState, affected: np.ndarray
    ) -> int:
        required = state.required
        init_req = state.init_req
        level = flat.level
        bdst = flat.b_dst
        db = state.delay_b
        evaluated = 0
        pending = np.zeros(flat.num_nodes, dtype=bool)
        buckets: List[List[np.ndarray]] = [[] for _ in range(flat.max_level + 1)]
        self._bucket_by_level(
            np.unique(flat.a_src[affected]), level, pending, buckets
        )
        for lvl in range(flat.max_level, -1, -1):
            chunk = buckets[lvl]
            if not chunk:
                continue
            us = np.concatenate(chunk) if len(chunk) > 1 else chunk[0]
            pending[us] = False
            starts = flat.succ_start[us]
            counts = flat.succ_end[us] - starts
            idx = multi_arange(starts, counts)
            evaluated += len(idx)
            cand = required[bdst[idx]] - db[idx]
            loc = np.concatenate(([0], np.cumsum(counts)))[:-1]
            segmin = np.minimum.reduceat(cand, loc)
            new = np.minimum(init_req[us], segmin)
            changed = us[new != required[us]]
            required[us] = new
            if len(changed):
                ps = flat.pred_start[changed]
                pc = flat.pred_end[changed] - ps
                pred = flat.f_src[multi_arange(ps, pc)]
                if len(pred):
                    self._bucket_by_level(
                        np.unique(pred), level, pending, buckets
                    )
        return evaluated


class RoutedTiming:
    """Post-route timing of one design, kept across re-routings.

    The first :meth:`update` compiles the graph and runs a full
    propagation; each later one diffs the routed lengths against the
    previous pass and invalidates only the changed nets, so the
    propagation is a cone update (``sta.incremental.*`` counters)
    whenever the clock uncertainty is also unchanged — a moved
    flip-flop changes the CTS skew, which makes the update full.
    Topology edits recompile the graph transparently (see
    :meth:`TimingAnalyzer._refresh_graph`).

    The length diff alone does not meet :meth:`invalidate_nets`'
    contract: a pin that moves inside an unchanged routing tree changes
    its sink distance but not the net's length.  Before relying on the
    cone path for bit-identity, also invalidate the nets of moved
    instances (ROADMAP item 5 b).
    """

    def __init__(self) -> None:
        self.analyzer: Optional[TimingAnalyzer] = None

    def update(
        self, design, net_lengths: Dict[int, float], clock_uncertainty: float
    ) -> TimingReport:
        """Timing of ``design`` under a routing's per-net lengths."""
        analyzer = self.analyzer
        if analyzer is None:
            analyzer = self.analyzer = TimingAnalyzer(
                timing_graph_for(design),
                RoutedWireModel(design, dict(net_lengths)),
                clock_uncertainty=clock_uncertainty,
            )
            return analyzer.update()
        recorded = analyzer.wire_model.routed_lengths
        changed = [
            idx for idx, length in net_lengths.items() if recorded.get(idx) != length
        ]
        changed.extend(idx for idx in recorded if idx not in net_lengths)
        recorded.clear()
        recorded.update(net_lengths)
        analyzer.clock_uncertainty = clock_uncertainty
        analyzer.invalidate_nets(changed)
        obs.count("eco.sta.invalidated", len(changed))
        return analyzer.update()
