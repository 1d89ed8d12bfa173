"""Critical path enumeration (OpenSTA ``findPathEnds`` substitute).

The paper extracts the top |P| timing paths with group count |P|,
endpoint count 1, unique pins, sorted by slack (Section 3.1).  That
configuration means: one worst path per endpoint, the |P| worst
endpoints overall.  :func:`find_path_ends` reproduces exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.sta.analysis import TimingAnalyzer


@dataclass
class TimingPath:
    """One enumerated timing path.

    Attributes:
        nodes: Pin node ids from startpoint to endpoint.
        slack: Endpoint slack (ns).
        net_indices: Indices of the nets traversed by the path's wire
            arcs — the hyperedges the PPA-aware clustering will weight.
    """

    nodes: List[int]
    slack: float
    net_indices: List[int]

    @property
    def endpoint(self) -> int:
        """The endpoint node id."""
        return self.nodes[-1]

    @property
    def startpoint(self) -> int:
        """The startpoint node id."""
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)


def find_path_ends(
    analyzer: TimingAnalyzer,
    group_count: int = 100000,
    endpoint_count: int = 1,
    unique_pins: bool = True,
    sort_by_slack: bool = True,
) -> List[TimingPath]:
    """Enumerate the worst paths, mirroring OpenSTA's findPathEnds.

    Args:
        analyzer: A timing analyzer (update() is run if needed).
        group_count: Maximum number of endpoints to report (|P|).
        endpoint_count: Worst paths per endpoint; only 1 is supported,
            matching the paper's configuration.
        unique_pins: Kept for API fidelity; the single worst path per
            endpoint is always pin-unique.
        sort_by_slack: Sort ascending by slack (worst first).

    Returns:
        Up to ``group_count`` paths, one per endpoint.
    """
    if endpoint_count != 1:
        raise NotImplementedError("only endpoint_count=1 is supported")
    if analyzer.report is None:
        analyzer.update()
    report = analyzer.report
    assert report is not None

    endpoints = list(report.endpoint_slacks.items())
    if sort_by_slack:
        endpoints.sort(key=lambda item: item[1])
    endpoints = endpoints[:group_count]

    graph = analyzer.graph
    # A node has at most one wire in-arc (its pin's net), so a hop
    # (pred -> node) traverses a wire exactly when the node's wire
    # in-arc source is pred, read from these per-node arrays.
    wire_src, wire_net = graph.wire_in_arrays()
    wire_src = wire_src.tolist()
    wire_net = wire_net.tolist()
    worst_pred = report.worst_pred
    paths: List[TimingPath] = []
    for endpoint, slack in endpoints:
        nodes: List[int] = []
        nets: List[int] = []
        seen: Set[int] = set()
        node = endpoint
        while node != -1 and node not in seen:
            seen.add(node)
            nodes.append(node)
            pred = worst_pred[node]
            if pred != -1 and wire_src[node] == pred:
                nets.append(wire_net[node])
            node = pred
        nodes.reverse()
        nets.reverse()
        paths.append(TimingPath(nodes=nodes, slack=slack, net_indices=nets))
    return paths
