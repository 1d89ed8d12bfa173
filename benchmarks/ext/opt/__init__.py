"""Netlist optimisation substrate (OpenROAD resizer substitute).

Post-placement optimisations the paper's flows run implicitly inside
OpenROAD (`resizer`) / Innovus (`optDesign`): high-fanout buffering and
gate sizing.  The STA delay model includes a *virtual* buffering term
for unbuffered netlists; running these passes materialises the buffers
so the virtual term vanishes.
"""

from benchmarks.ext.opt.buffering import BufferingResult, buffer_high_fanout_nets
from benchmarks.ext.opt.sizing import SizingResult, resize_gates

__all__ = [
    "BufferingResult",
    "buffer_high_fanout_nets",
    "SizingResult",
    "resize_gates",
]
