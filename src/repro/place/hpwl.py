"""Half-perimeter wirelength metrics.

HPWL is the paper's post-place quality metric (Table 2) and the
denominator of the V-P&R HPWL cost (Eq. 4).  :func:`hpwl_arrays` is the
kernel; which pin belongs to which net comes from the design's one
flat form (:meth:`~repro.netlist.arrays.NetlistArrays.pin_vertex_csr`),
so this module keeps no cache of its own.  :func:`net_hpwl` is the
per-net object walk spot checks and the L-shape study use.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.netlist.arrays import NetlistArrays
from repro.netlist.design import Design, Net


def net_hpwl(design: Design, net: Net) -> float:
    """HPWL of one net over current instance/port locations (microns)."""
    xs = []
    ys = []
    for ref in net.pins():
        if ref.instance is not None:
            xs.append(ref.instance.x)
            ys.append(ref.instance.y)
        else:
            port = design.ports[ref.pin_name]
            xs.append(port.x)
            ys.append(port.y)
    if len(xs) < 2:
        return 0.0
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def hpwl(
    arrays: NetlistArrays, weighted: bool = False, include_clock: bool = False
) -> float:
    """Total HPWL of a flat netlist (microns).

    Vectorized: the net -> pin CSR is memoised on the flat form
    (``arrays.pin_vertex_csr``); per call only the live coordinate
    vectors (and, when requested, the weights) are gathered, and
    :func:`hpwl_arrays` reduces the spans.

    Args:
        arrays: A flat netlist, e.g. ``design.arrays()`` with a current
            placement.
        weighted: Multiply each net by its placement weight (the
            placer's objective); reporting uses unweighted HPWL.
        include_clock: Include clock nets (excluded by default, as the
            clock is routed by CTS, not signal routing).
    """
    pin_vertex, net_offsets, net_indices = arrays.pin_vertex_csr(include_clock)
    x, y = arrays.vertex_positions()
    weights = arrays.current_net_weights()[net_indices] if weighted else None
    return hpwl_arrays(pin_vertex, net_offsets, x, y, weights)


def hpwl_arrays(
    pin_vertex: np.ndarray,
    net_offsets: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weights: Optional[np.ndarray] = None,
):
    """HPWL over the flat array representation used by the placer.

    Args:
        pin_vertex: Concatenated per-net vertex ids.
        net_offsets: Offsets into ``pin_vertex`` (len = num_nets + 1).
        x, y: Vertex coordinates, ``(n,)`` — or ``(K, n)`` for K
            stacked placements, giving one HPWL per row.
        weights: Optional per-net weights.
    """
    if len(net_offsets) <= 1:
        return 0.0 if x.ndim == 1 else np.zeros(len(x))
    px = x[..., pin_vertex]
    py = y[..., pin_vertex]
    # reduceat on empty slices can't occur: every net has >= 2 pins.
    starts = net_offsets[:-1]
    max_x = np.maximum.reduceat(px, starts, axis=-1)
    min_x = np.minimum.reduceat(px, starts, axis=-1)
    max_y = np.maximum.reduceat(py, starts, axis=-1)
    min_y = np.minimum.reduceat(py, starts, axis=-1)
    spans = (max_x - min_x) + (max_y - min_y)
    if weights is not None:
        spans = spans * weights
    total = spans.sum(axis=-1)
    return float(total) if x.ndim == 1 else total
