"""Half-perimeter wirelength metrics.

HPWL is the paper's post-place quality metric (Table 2) and the
denominator of the V-P&R HPWL cost (Eq. 4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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


class _DesignNetArrays:
    """Flat per-pin arrays for one design, built once and reused.

    ``hpwl()`` on a MemPool-scale design used to walk every net's pin
    list in Python on each call; the structure (which pin belongs to
    which net) never changes between calls, only coordinates and
    weights do.  This cache snapshots the structure as CSR-style
    arrays; per call only the coordinate vector (and, when requested,
    the weight vector) is refreshed.

    Pin vertex convention matches :class:`repro.place.problem.PlacementProblem`:
    instances occupy ids ``[0, num_instances)``, ports follow in sorted
    name order.  Nets keep per-pin entries (duplicates included), so
    spans equal :func:`net_hpwl` exactly.
    """

    __slots__ = (
        "fingerprint",
        "pin_vertex",
        "net_offsets",
        "net_list",
        "port_names",
    )

    def __init__(self, design: Design, include_clock: bool) -> None:
        self.fingerprint = _structure_fingerprint(design, include_clock)
        arrays = design.arrays()
        self.port_names = sorted(design.ports)
        pin_vertex, offsets, sel_nets = arrays.pin_vertex_csr(include_clock)
        self.pin_vertex = pin_vertex
        self.net_offsets = offsets
        nets = design.nets
        self.net_list = [nets[i] for i in sel_nets.tolist()]

    def coordinates(self, design: Design):
        """Fresh (x, y) vertex coordinate vectors."""
        arrays = design.arrays()
        n_inst = arrays.num_instances
        n_total = n_inst + arrays.num_ports
        x = np.empty(n_total)
        y = np.empty(n_total)
        xs, ys = arrays.current_positions()
        x[:n_inst] = xs
        y[:n_inst] = ys
        px, py = arrays.current_port_xy()
        x[n_inst + arrays.port_sorted_rank] = px
        y[n_inst + arrays.port_sorted_rank] = py
        return x, y

    def weights(self) -> np.ndarray:
        """Fresh per-net weight vector (weights mutate between calls)."""
        return np.asarray([net.weight for net in self.net_list])


def _structure_fingerprint(design: Design, include_clock: bool):
    """Invalidation key: :meth:`Design.structure_key` changes with every
    structural mutation — also the count-preserving ones (an ECO
    ``reconnect``, an add plus a remove in one script), which a key of
    entity counts alone misses."""
    return (design.structure_key(), bool(include_clock))


def _net_arrays(design: Design, include_clock: bool) -> _DesignNetArrays:
    """Fetch (or rebuild) the cached flat arrays for a design."""
    cache = getattr(design, "_hpwl_net_arrays", None)
    fingerprint = _structure_fingerprint(design, include_clock)
    entry = cache.get(include_clock) if cache else None
    if entry is not None and entry.fingerprint == fingerprint:
        return entry
    entry = _DesignNetArrays(design, include_clock)
    if cache is None:
        cache = {}
        design._hpwl_net_arrays = cache
    cache[include_clock] = entry
    return entry


def hpwl(design: Design, weighted: bool = False, include_clock: bool = False) -> float:
    """Total design HPWL (microns).

    Vectorized: the per-design pin/offset arrays are built once (see
    :class:`_DesignNetArrays`) and every call reduces spans with
    :func:`hpwl_arrays` instead of a per-net Python loop.

    Args:
        design: Design with a current placement.
        weighted: Multiply each net by its placement weight (the
            placer's objective); reporting uses unweighted HPWL.
        include_clock: Include clock nets (excluded by default, as the
            clock is routed by CTS, not signal routing).
    """
    arrays = _net_arrays(design, include_clock)
    if len(arrays.net_offsets) <= 1:
        return 0.0
    x, y = arrays.coordinates(design)
    return hpwl_arrays(
        arrays.pin_vertex,
        arrays.net_offsets,
        x,
        y,
        arrays.weights() if weighted else None,
    )


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
