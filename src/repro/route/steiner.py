"""Rectilinear Steiner tree construction (FLUTE-lite), batch-native.

Exact for 2-3 pin nets (where RSMT length equals the bounding-box
half-perimeter); Prim MST with a Steiner discount for larger nets.
The returned edge list feeds the pattern router.

:func:`rsmt` builds a *forest*: any number of point sets, laid flat as
``(x, y, offsets)`` segments, in one call.  Segments of equal pin count
run Prim in lockstep (one ``(G, k)`` array step per tree edge), always
in the constellation's relative frame (minimum x/y at the origin); a
tree does not depend on what it is grouped with, so the router's 20
stacked shape candidates and a single-net call get identical trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs

#: MST-to-RSMT discount for multi-pin nets; the RSMT of random point
#: sets averages ~0.9x the rectilinear MST length.
STEINER_DISCOUNT = 0.9

#: Pin-count cap: beyond this the O(k^2) Prim becomes noticeable and
#: nets are routed as a star from the first pin (drivers come first).
#: Signal nets rarely get near this; clock fanout is handled by CTS,
#: not the signal router.
MAX_MST_PINS = 1024

#: ``steiner.rsmt.miss`` counts the Prim trees built in the 4..24-pin
#: band — the band a since-removed topology memo covered, which the
#: measurement spine still reads as "trees actually built".
_COUNTED_MAX_PINS = 24


@dataclass
class SteinerTree:
    """A routing topology for one net.

    Attributes:
        points: Pin locations (x, y), driver first when known.
        edges: Index pairs into ``points`` forming the tree.
        length: Estimated rectilinear Steiner length (microns).
    """

    points: List[Tuple[float, float]]
    edges: List[Tuple[int, int]]
    length: float


class SteinerForest(NamedTuple):
    """The trees of many point sets, flat: per-segment ``length`` (0
    below two points) and the tree edges ``edge_a[e] -- edge_b[e]`` as
    indices into the flat point arrays, segment ``s`` owning edges
    ``[edge_offsets[s], edge_offsets[s + 1])`` in tree order."""

    length: np.ndarray
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_offsets: np.ndarray


def rsmt(
    x: Union[Sequence[Tuple[float, float]], np.ndarray],
    y: Optional[np.ndarray] = None,
    offsets: Optional[np.ndarray] = None,
) -> Union[SteinerTree, SteinerForest]:
    """Build rectilinear Steiner trees: ``rsmt(x, y, offsets)`` the
    :class:`SteinerForest` over flat coordinate arrays holding segment
    ``s`` at ``[offsets[s], offsets[s + 1])``; ``rsmt(points)``, its
    one-segment case, the :class:`SteinerTree` of one ``(x, y)`` list.

    2-pin and 3-pin nets use the exact RSMT length (bounding-box
    half-perimeter); larger nets use a Prim MST with the standard
    Steiner discount; nets above :data:`MAX_MST_PINS` pins fall back
    to a star topology.
    """
    if y is None:
        points = list(x)
        flat = np.asarray(points, dtype=float).reshape(-1, 2)
        forest = _forest(flat[:, 0], flat[:, 1], np.array([0, len(points)]))
        edges = list(zip(forest.edge_a.tolist(), forest.edge_b.tolist()))
        return SteinerTree(points, edges, float(forest.length[0]))
    return _forest(x, y, np.asarray(offsets, dtype=np.int64))


def _forest(x: np.ndarray, y: np.ndarray, offsets: np.ndarray) -> SteinerForest:
    starts = offsets[:-1]
    sizes = np.diff(offsets)
    edge_offsets = np.concatenate(([0], np.cumsum(np.maximum(sizes - 1, 0))))
    length = np.zeros(len(sizes))
    edge_a = np.empty(edge_offsets[-1], dtype=np.int64)
    edge_b = np.empty(edge_offsets[-1], dtype=np.int64)
    counted = 0
    for k in np.unique(sizes[sizes >= 2]).tolist():
        segments = np.flatnonzero(sizes == k)
        first = starts[segments][:, None]
        px = x[first + np.arange(k)]
        py = y[first + np.arange(k)]
        # Star from the first pin: the 2-/3-pin and over-cap topology.
        tail = np.zeros((len(segments), k - 1), dtype=np.int64)
        head = tail + np.arange(1, k)
        if k <= 3:
            # RSMT of 2-3 terminals = HPWL of their bounding box (for
            # 3, realised by a tree through the median point).
            total = (px.max(axis=1) - px.min(axis=1)) + (
                py.max(axis=1) - py.min(axis=1)
            )
        elif k > MAX_MST_PINS:
            spokes = np.abs(px[:, :1] - px[:, 1:]) + np.abs(py[:, :1] - py[:, 1:])
            # cumsum: the left-to-right sum of the spokes, not pairwise.
            total = np.cumsum(spokes, axis=1)[:, -1]
        else:
            if k <= _COUNTED_MAX_PINS:
                counted += len(segments)
            total, tail, head = _prim_lockstep(
                px - px.min(axis=1, keepdims=True), py - py.min(axis=1, keepdims=True)
            )
            total = total * STEINER_DISCOUNT
        length[segments] = total
        slots = edge_offsets[segments][:, None] + np.arange(k - 1)
        edge_a[slots] = first + tail
        edge_b[slots] = first + head
    if counted:
        obs.count("steiner.rsmt.miss", counted)
    return SteinerForest(length, edge_a, edge_b, edge_offsets)


def clear_rsmt_cache() -> None:
    """No-op: the topology memo is gone (a lockstep Prim tree costs less
    than a memo probe did).  Kept only because the measurement spine
    imports it; a ``benchmark`` PR drops both."""


def _prim_lockstep(
    xs: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prim's algorithm on the Manhattan metric over G constellations
    of k points each (``xs`` / ``ys`` are ``(G, k)``), one step for all
    of them at a time: the ``(G,)`` MST lengths, accumulated edge by
    edge, and the ``(G, k - 1)`` edge endpoints in insertion order.
    ``argmin`` breaks distance ties towards the lowest point index;
    in-tree vertices are pinned to inf (pin distances are finite)."""
    count, k = xs.shape
    rows = np.arange(count)
    best = np.abs(xs - xs[:, :1]) + np.abs(ys - ys[:, :1])
    best[:, 0] = np.inf
    origin = np.zeros((count, k), dtype=np.int64)
    total = np.zeros(count)
    tail = np.empty((count, k - 1), dtype=np.int64)
    head = np.empty((count, k - 1), dtype=np.int64)
    for step in range(k - 1):
        j = best.argmin(axis=1)
        total += best[rows, j]
        tail[:, step] = origin[rows, j]
        head[:, step] = j
        best[rows, j] = np.inf
        dist = np.abs(xs - xs[rows, j, None]) + np.abs(ys - ys[rows, j, None])
        closer = (dist < best) & (best != np.inf)
        np.copyto(best, dist, where=closer)
        np.copyto(origin, j[:, None], where=closer)
    return total, tail, head
