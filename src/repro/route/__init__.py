"""Global routing / CTS substrate (FastRoute + TritonCTS substitute).

Builds rectilinear Steiner topologies per net, routes them over a GCell
grid with congestion-aware L-pattern selection, and reports routed
wirelength plus the GCell congestion statistics the V-P&R Congestion
Cost (Eq. 5) consumes.  A recursive-bisection clock tree provides the
clock wirelength/buffers for post-route power.
"""

from repro.route.steiner import rsmt
from repro.route.gcell import GCellGrid
from repro.route.global_route import GlobalRouter
from repro.route.cts import synthesize_clock_tree

__all__ = [
    "rsmt",
    "GCellGrid",
    "GlobalRouter",
    "synthesize_clock_tree",
]
