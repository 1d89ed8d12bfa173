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
Every update propagates the whole graph; compiling the graph, not
propagating it, dominates an STA call (docs/performance.md, "STA
propagation").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.sta.delay import WireDelayModel
from repro.sta.flat import FlatTiming, check_wire_model, flat_for
from repro.sta.graph import TimingGraph

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


class TimingAnalyzer:
    """Propagates timing over a :class:`TimingGraph`.

    Every :meth:`update` is one full propagation at the wire model's
    current answers; re-running it after the placement moves re-reads
    the geometry over the same compiled graph.
    """

    def __init__(
        self,
        graph: TimingGraph,
        wire_model: WireDelayModel,
        clock_uncertainty: float = 0.0,
    ) -> None:
        check_wire_model(wire_model)
        self.graph = graph
        self.wire_model = wire_model
        #: Uniform clock uncertainty (e.g. the CTS skew) subtracted
        #: from every endpoint's required time (ns).
        self.clock_uncertainty = clock_uncertainty
        self.report: Optional[TimingReport] = None
        #: The last update's arc delays in forward order (hold reuses them).
        self._delay_f: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _clock_period(self) -> float:
        period = self.graph.arrays.current_scalar("clock_period")
        return period if period is not None else UNCONSTRAINED_PERIOD

    # ------------------------------------------------------------------
    def update(self) -> TimingReport:
        """Run arrival/required propagation; returns the report.

        Each update also appends one point to the ``sta.wns`` /
        ``sta.tns`` telemetry streams (auto-stepped, so repeated
        updates — e.g. pre/post optimisation — trace a trajectory).
        """
        with obs.stage("sta.update", nodes=self.graph.num_nodes):
            report = self._update()
        obs.observe("sta.wns", report.wns)
        obs.observe("sta.tns", report.tns)
        obs.observe("sta.failing_endpoints", report.num_failing)
        return report

    def _update(self) -> TimingReport:
        flat = flat_for(self.graph)
        period = self._clock_period()
        delay = self._arc_delays(flat)
        delay_f = delay[flat.order_f]
        arrival, wp = self._forward(flat, delay_f)
        required = self._backward(flat, delay[flat.order_b], period)
        self._delay_f = delay_f
        return self._finalize(flat, arrival, required, wp, period)

    def _arc_delays(self, flat: FlatTiming) -> np.ndarray:
        """Per-arc delays (enumeration order) at the current geometry."""
        model = self.wire_model
        inst_x, inst_y = flat.geometry(model)
        net_load, net_hpwl = flat.net_loads(model, inst_x, inst_y)
        return flat.arc_delays(model, net_load, net_hpwl, inst_x, inst_y)

    def forward_delays(self, flat: FlatTiming) -> np.ndarray:
        """Arc delays in ``flat``'s forward order (for min-propagation).

        The last update's vector, or computed at the current geometry
        when the analyzer has not been updated yet.
        """
        if self._delay_f is not None:
            return self._delay_f
        return self._arc_delays(flat)[flat.order_f]

    def _forward(self, flat: FlatTiming, delay_f: np.ndarray):
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

    def _backward(self, flat: FlatTiming, delay_b: np.ndarray, period: float):
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
        return required

    def _finalize(
        self,
        flat: FlatTiming,
        arrival: np.ndarray,
        required: np.ndarray,
        wp: np.ndarray,
        period: float,
    ) -> TimingReport:
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
            worst_pred=wp.tolist(),
        )
        return self.report
