"""Hold (min-delay) analysis.

Setup analysis propagates worst-case (max) arrivals; hold checks the
*fastest* path into each sequential D pin against the hold requirement
at the same clock edge:

    slack_hold = min_arrival(D) - (hold_time + clock_uncertainty)

Short register-to-register paths — exactly what aggressive clustering
can create by collapsing connected registers next to each other — are
the classic hold hazard, so the post-route evaluation can optionally
report hold WNS/TNS alongside setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.sta.analysis import TimingAnalyzer
from repro.sta.flat import flat_for


@dataclass
class HoldReport:
    """Hold-analysis results.

    Attributes:
        wns: Worst hold slack (ns; negative = violation).
        tns: Total negative hold slack (ns).
        endpoint_slacks: Node id -> hold slack for sequential endpoints.
    """

    wns: float
    tns: float
    endpoint_slacks: Dict[int, float] = field(default_factory=dict)

    @property
    def num_failing(self) -> int:
        """Endpoints violating hold."""
        return sum(1 for s in self.endpoint_slacks.values() if s < 0)


def analyze_hold(
    analyzer: TimingAnalyzer, input_min_delay: float = 0.05
) -> HoldReport:
    """Min-arrival propagation over the analyzer's graph + wire model.

    One flat min-propagation over the analyzer's arc delays (the last
    update's, or fresh ones when none is current).  Only sequential
    D-type endpoints are checked (output ports have no hold
    requirement in this single-clock model).

    Args:
        analyzer: Setup analyzer providing graph, wire model and clock
            uncertainty.
        input_min_delay: Earliest change time of primary inputs after
            the clock edge (the ``set_input_delay -min`` value real
            flows constrain; without it every input-to-D endpoint
            trivially fails hold).
    """
    flat = flat_for(analyzer.graph)
    arr = np.full(flat.num_nodes, np.inf)
    if len(flat.s_nodes):
        launch = np.where(flat.s_isport, input_min_delay, flat.s_launch)
        np.minimum.at(arr, flat.s_nodes, launch)
    fsrc = flat.f_src
    fdst = flat.f_dst
    df = analyzer.forward_delays(flat)
    for lvl in range(1, flat.max_level + 1):
        a0 = flat.wave_f[lvl]
        a1 = flat.wave_f[lvl + 1]
        if a0 == a1:
            continue
        starts = flat.seg_f[flat.wave_seg_f[lvl] : flat.wave_seg_f[lvl + 1]]
        cand = arr[fsrc[a0:a1]] + df[a0:a1]
        segmin = np.minimum.reduceat(cand, starts - a0)
        vs = fdst[starts]
        arr[vs] = np.minimum(arr[vs], segmin)
    e = flat.e_nodes
    keep = flat.e_isseq & (arr[e] != np.inf) if len(e) else np.empty(0, bool)
    kept_nodes = e[keep]
    slack = arr[kept_nodes] - (flat.e_hold[keep] + analyzer.clock_uncertainty)
    wns = float(slack.min()) if len(slack) else 0.0
    tns = 0.0
    neg = slack[slack < 0]
    if len(neg):
        tns = float(np.cumsum(neg)[-1])
    return HoldReport(
        wns=wns,
        tns=tns,
        endpoint_slacks=dict(zip(kept_nodes.tolist(), slack.tolist())),
    )
