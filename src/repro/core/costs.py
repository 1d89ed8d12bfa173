"""Hyperedge cost terms of the PPA-aware rating (Eqs. 2-3).

The enhanced heavy-edge rating of the paper is

    r_overall(u, v) = sum_{e in I(u) ∩ I(v)} (alpha*w_e + beta*t_e + gamma*s_e) / (|e| - 1)

with ``t_e`` the timing cost of hyperedge e (accumulated from the
top-|P| critical paths, following TritonPart [5]) and ``s_e`` the
switching cost of Eq. 2.  This module computes the per-edge numerators
``alpha*w_e + beta*t_e + gamma*s_e``; the FC coarsener divides by
``|e| - 1`` and sums over shared edges, yielding exactly r_overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.netlist.hypergraph import Hypergraph
from repro.sta.paths import TimingPath


@dataclass
class CostConfig:
    """Scaling factors of Eq. 3 and Eq. 2.

    Attributes:
        alpha: Connectivity weight (on w_e).
        beta: Timing-cost weight (on t_e).
        gamma: Switching-cost weight (on s_e).
        mu: Exponent of the switching cost (Eq. 2; default 2).
        slack_threshold_fraction: Paths with slack above this fraction
            of the clock period contribute no timing cost.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    mu: float = 2.0
    slack_threshold_fraction: float = 0.25


def hyperedge_timing_costs(
    hgraph: Hypergraph,
    paths: Iterable[TimingPath],
    clock_period: float,
    slack_threshold_fraction: float = 0.25,
) -> np.ndarray:
    """Per-hyperedge timing cost t_e, following [5].

    Each path p gets cost ``t_p = (1 - slack_p / TCP)^2`` when its
    slack is below ``slack_threshold_fraction * TCP`` (critical or
    near-critical), else 0; ``t_e`` sums t_p over the paths traversing
    e.  Costs are normalised so the mean non-zero t_e is 1, keeping
    beta comparable to alpha across designs.
    """
    net_to_edge: Dict[int, int] = {
        int(net_idx): ei
        for ei, net_idx in enumerate(hgraph.edge_net_indices)
        if net_idx >= 0
    }
    costs = np.zeros(hgraph.num_edges)
    if clock_period <= 0:
        return costs
    threshold = slack_threshold_fraction * clock_period
    for path in paths:
        if path.slack >= threshold:
            continue
        t_p = (1.0 - path.slack / clock_period) ** 2
        for net_idx in path.net_indices:
            ei = net_to_edge.get(net_idx)
            if ei is not None:
                costs[ei] += t_p
    nonzero = costs[costs > 0]
    if len(nonzero):
        costs = costs / nonzero.mean()
    return costs


def hyperedge_switching_costs(
    hgraph: Hypergraph,
    net_activity: np.ndarray,
    mu: float = 2.0,
) -> np.ndarray:
    """Per-hyperedge switching cost s_e (Eq. 2).

    ``s_e = (1 + theta_e / sum_e theta_e)^mu`` — nets with high
    switching activity get super-unit cost, so the coarsener prefers to
    absorb them into clusters (shortening high-activity wires saves
    dynamic power).  ``net_activity`` is per net index
    (:func:`repro.sta.propagate_activity`); an edge that is no net
    has theta 0.
    """
    nets = np.asarray(hgraph.edge_net_indices, dtype=np.int64)
    theta = np.zeros(hgraph.num_edges)
    edge = nets >= 0
    theta[edge] = np.asarray(net_activity, dtype=np.float64)[nets[edge]]
    total = theta.sum()
    if total <= 0:
        return np.ones(hgraph.num_edges)
    return (1.0 + theta / total) ** mu


def compute_edge_scores(
    hgraph: Hypergraph,
    config: Optional[CostConfig] = None,
    paths: Optional[Sequence[TimingPath]] = None,
    net_activity: Optional[np.ndarray] = None,
    clock_period: Optional[float] = None,
) -> np.ndarray:
    """Eq. 3 numerators: ``alpha*w_e + beta*t_e + gamma*s_e`` per edge.

    Timing / switching terms are skipped (contributing 0) when the
    corresponding inputs are absent, which degrades gracefully to the
    classic heavy-edge rating at ``alpha * w_e``.
    """
    config = config or CostConfig()
    scores = config.alpha * hgraph.edge_weights.astype(float)
    if paths is not None and clock_period:
        scores = scores + config.beta * hyperedge_timing_costs(
            hgraph, paths, clock_period, config.slack_threshold_fraction
        )
    if net_activity is not None:
        scores = scores + config.gamma * hyperedge_switching_costs(
            hgraph, net_activity, config.mu
        )
    return scores
