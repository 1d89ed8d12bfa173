"""repro — reproduction of "PPA-Relevant Clustering-Driven Placement for
Large-Scale VLSI Designs" (Kahng et al., DAC 2024).

The package is organised as a set of substrates (netlist database, static
timing analysis, global placement, global routing / CTS, baseline
clustering algorithms, a NumPy GNN stack and a synthetic benchmark
generator) plus the paper's contribution in :mod:`repro.core`:
PPA-aware clustering, the virtualized-P&R (V-P&R) shape-selection
framework, its ML acceleration and the seeded-placement flow.

Quickstart::

    from repro.designs import load_benchmark
    from repro.core import ClusteredPlacementFlow, FlowConfig

    design = load_benchmark("aes")
    flow = ClusteredPlacementFlow(FlowConfig(tool="openroad"))
    result = flow.run(design)
    print(result.metrics)
"""

from repro import _heap
from repro._version import __version__

_heap.keep_warm()

__all__ = ["__version__"]
