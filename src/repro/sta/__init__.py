"""Static timing / power analysis substrate (OpenSTA substitute).

Provides the artefacts Algorithm 1 extracts before clustering:

* top-|P| critical timing paths (``find_path_ends``, Section 3.1),
* vectorless switching activity per net (``propagate_activity``),
* post-place / post-route WNS, TNS and total power.
"""

from repro.sta.delay import (
    FanoutWireModel,
    PlacementWireModel,
    RoutedWireModel,
    WireDelayModel,
)
from repro.sta.graph import TimingGraph, timing_graph_for
from repro.sta.analysis import TimingAnalyzer
from repro.sta.paths import TimingPath, find_path_ends
from repro.sta.activity import propagate_activity
from repro.sta.power import analyze_power
from repro.sta.hold import analyze_hold

__all__ = [
    "WireDelayModel",
    "FanoutWireModel",
    "PlacementWireModel",
    "RoutedWireModel",
    "TimingGraph",
    "timing_graph_for",
    "TimingAnalyzer",
    "TimingPath",
    "find_path_ends",
    "propagate_activity",
    "analyze_power",
    "analyze_hold",
]
