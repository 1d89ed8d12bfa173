"""Bound-to-bound (B2B) quadratic net model.

Implements the Spindler-Schlichtmann-Johannes B2B model: for each net,
the extreme pins on an axis connect to every other pin with weight
``w_net * 2 / ((p - 1) * distance)``, which makes the quadratic
objective equal HPWL at the linearisation point.  The resulting sparse
SPD system is solved per axis with conjugate gradients.

Every kernel here takes a leading *system* axis: ``coords`` of shape
``(K, n)`` is K independent linearisation points of one netlist (the x
and y axes of a placement, or the 20 virtual dies of a V-P&R sweep
times two axes).  The K systems are built from the one shared net→pin
CSR, stacked into one block-diagonal matrix and solved by one PCG run
over a ``(K, n_movable)`` block with per-system step sizes.  Each
system's arithmetic is exactly what a lone ``(n,)`` call performs, so a
system's solution does not depend on what it was batched with (see
``docs/performance.md``, "Lockstep candidate batching").
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro import obs

try:  # pragma: no cover - exercised whenever scipy provides the kernel
    from scipy.sparse import _sparsetools as _spt

    _CSR_MATVEC = _spt.csr_matvec
except ImportError:  # pragma: no cover - older/newer scipy layout
    _CSR_MATVEC = None

#: Minimum pin separation (microns) used in B2B weights.  Clamping at
#: roughly one cell pitch keeps coincident pins (e.g. seeded starts
#: where a whole cluster sits at one point) from creating near-rigid
#: springs that spreading cannot pull apart.
MIN_SEPARATION = 1.0


def stable_argsort_ints(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort along the last axis of integer keys in ``[0, bound)``.

    One LSD pass per 16-bit digit: NumPy's stable sort of ``uint16`` is
    a radix sort, so this is O(n) where the comparison sort of the
    fused ``int64`` key is not — and, being stable, yields the same
    permutation.  (Stacking K small comparison sorts into one big one
    is *slower* than running them one by one; stacking radix passes is
    not.)
    """
    order = None
    shift = 0
    while True:
        digit = (keys >> shift).astype(np.uint16)
        if order is not None:
            digit = np.take_along_axis(digit, order, axis=-1)
        step = np.argsort(digit, axis=-1, kind="stable")
        order = step if order is None else np.take_along_axis(order, step, axis=-1)
        shift += 16
        if (bound - 1) >> shift == 0:
            return order


def sort_ints(keys: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` of the stable argsort of 1-D integer
    keys in ``[0, bound)``: where key and position fit one ``int64``, a
    plain sort of distinct integers (key above, position below), ~2.5x
    faster than the radix passes that take wider keys."""
    bits = len(keys).bit_length()
    if (bound - 1).bit_length() + bits < 64:
        packed = keys << bits
        packed |= np.arange(len(keys))
        packed.sort()
        order = packed & ((1 << bits) - 1)
        packed >>= bits
        return order, packed
    order = stable_argsort_ints(keys, bound)
    return order, keys[order]


@functools.lru_cache(maxsize=None)
def _vecdot_is_ddot() -> bool:
    """Whether ``np.vecdot`` rows equal the 1-D ``@`` (BLAS ddot) bitwise.

    They do on NumPy 2.x / OpenBLAS; probed once rather than assumed,
    because the batched PCG must reproduce the lone solve's dot
    products exactly.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 301))
    b = rng.standard_normal((3, 301))
    rows = np.vecdot(a, b)
    return all(rows[k] == a[k] @ b[k] for k in range(3))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two ``(K, n)`` blocks, each bitwise
    equal to the 1-D ``a[k] @ b[k]``."""
    if _vecdot_is_ddot():
        return np.vecdot(a, b)
    return np.array([a[k] @ b[k] for k in range(len(a))])


class PinOrder(NamedTuple):
    """One stable coordinate sort of ``R`` stacked rows: each row's
    vertex argsort ``(R, n)``, and its pin vertices in
    ``np.lexsort((coord[pin_vertex], pin_net))`` order with their
    coordinates, ``(R, pins)`` each."""

    vertices: np.ndarray
    pins: np.ndarray
    coords: np.ndarray

    def take(self, rows: np.ndarray) -> "PinOrder":
        """The sort of the selected rows (index or mask)."""
        return PinOrder(*(part[rows] for part in self))


class NetPins:
    """A net→pin CSR with what every round derives from it computed
    once (each net's first / last sorted position, the inner pins, the
    B2B weights ``w_net * 2 / (p - 1)``): a placement run shares one
    across its rounds and K systems; only the :class:`PinOrder` moves."""

    def __init__(
        self, pin_vertex: np.ndarray, net_offsets: np.ndarray, net_weights: np.ndarray
    ) -> None:
        self.pin_vertex = pin_vertex
        num_nets = len(net_offsets) - 1
        degrees = np.diff(net_offsets)
        self.pin_net = np.repeat(np.arange(num_nets, dtype=np.int64), degrees)
        # pin_net ascends: sorted position -> net is pin_net in every row.
        self.starts = net_offsets[:-1]
        self.ends = net_offsets[1:] - 1
        boundary = np.zeros(len(pin_vertex), dtype=bool)
        boundary[self.starts] = True
        boundary[self.ends] = True
        self.inner = np.flatnonzero(~boundary)
        self.inner_net = self.pin_net[self.inner]
        self.net_weight = net_weights * (2.0 / np.maximum(degrees - 1, 1))
        self.inner_weight = self.net_weight[self.inner_net]

    def sort(self, coords: np.ndarray) -> PinOrder:
        """Sort each row of ``coords`` ``(R, n)`` once.  Pins are stably
        sorted by ``net * n + rank[pin_vertex]``, ``rank`` the dense rank
        of the coordinates (ties, and all NaNs, share one): the
        (net, coordinate) order, ties in pin order, on near-sorted keys."""
        n = coords.shape[1]
        vertices = np.argsort(coords, axis=1, kind="stable")
        ranked = np.take_along_axis(coords, vertices, axis=1)
        fresh = np.zeros(coords.shape, dtype=bool)
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=fresh[:, 1:])
        fresh[:, 1:] &= ranked[:, :-1] == ranked[:, :-1]  # NaN after NaN: tied
        rank = np.empty(coords.shape, dtype=np.int64)
        np.put_along_axis(rank, vertices, np.cumsum(fresh, axis=1), axis=1)
        key = rank[:, self.pin_vertex]
        key += self.pin_net * n
        pins = self.pin_vertex[np.argsort(key, axis=1, kind="stable")]
        return PinOrder(vertices, pins, np.take_along_axis(coords, pins, axis=1))

    def hpwl(self, order: PinOrder) -> np.ndarray:
        """HPWL per system of a sort of K x rows, then K y rows: per net,
        last sorted pin minus first — :func:`hpwl_arrays`' value."""
        coords = order.coords
        # np.take keeps rows C-contiguous (a fancy column index would
        # not), so each row's sum is the pairwise sum of a lone call.
        spans = np.take(coords, self.ends, axis=1) - np.take(coords, self.starts, axis=1)
        half = len(coords) // 2
        return (spans[:half] + spans[half:]).sum(axis=-1)

    def edges(self, order: PinOrder) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """B2B edges ``(u, v, w)`` of every row of ``order``, numbered
        over the block-diagonal graph (see :func:`b2b_edges`)."""
        rows, n = order.vertices.shape
        sv = order.pins + (np.arange(rows, dtype=np.int64) * n)[:, None]
        coords, inner_net = order.coords, self.inner_net
        min_vertex, max_vertex = sv[:, self.starts], sv[:, self.ends]
        min_coord, max_coord = coords[:, self.starts], coords[:, self.ends]
        inner_vertex, inner_coord = sv[:, self.inner], coords[:, self.inner]

        # Edge set per system: (inner, min) and (inner, max) over the
        # sorted pin order, plus the direct (min, max) edge once per net.
        d_min = np.maximum(np.abs(inner_coord - min_coord[:, inner_net]), MIN_SEPARATION)
        d_max = np.maximum(np.abs(max_coord[:, inner_net] - inner_coord), MIN_SEPARATION)
        span = np.maximum(np.abs(max_coord - min_coord), MIN_SEPARATION)
        u = np.concatenate([inner_vertex, inner_vertex, min_vertex], axis=1)
        v = np.concatenate(
            [min_vertex[:, inner_net], max_vertex[:, inner_net], max_vertex], axis=1
        )
        weight = self.inner_weight
        w = np.concatenate([weight / d_min, weight / d_max, self.net_weight / span], axis=1)
        keep = u != v
        return u[keep], v[keep], w[keep]


def b2b_edges(pin_vertex, net_offsets, net_weights, coords: np.ndarray):
    """B2B edges ``(u, v, w)`` at the current linearisation point(s):
    per net, the first and last pin in (coordinate, pin) order are the
    boundary pins.

    With ``coords`` of shape ``(K, n)`` the K systems' edges come back
    in one list, grouped by system, vertex ``i`` of system ``k`` numbered
    ``k * n + i`` — the block-diagonal graph :func:`solve_axis` takes;
    a system's edges are the ``(n,)`` call's, in the same order.
    """
    nets = NetPins(pin_vertex, net_offsets, net_weights)
    return nets.edges(nets.sort(np.atleast_2d(coords)))


def solve_axis(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    coords: np.ndarray,
    fixed: np.ndarray,
    anchor_targets: Optional[np.ndarray] = None,
    anchor_weights: Optional[np.ndarray] = None,
    cg_tol: float = 1e-6,
    cg_maxiter: int = 300,
) -> np.ndarray:
    """Solve the quadratic system(s) of one linearisation.

    Args:
        u, v, w: B2B edges.  For ``coords`` of shape ``(K, n)``, the
            stacked edge list :func:`b2b_edges` returns for it.
        coords: Current coordinates (used as the CG starting point and
            as the value of fixed vertices), ``(n,)`` or ``(K, n)``.
        fixed: Fixed-vertex mask ``(n,)``, shared by the K systems.
        anchor_targets: Optional per-vertex pseudo-net anchor targets
            (same shape as ``coords``).
        anchor_weights: Per-vertex anchor weights (0 disables),
            broadcast against ``coords``.

    Returns:
        New coordinate array (fixed entries unchanged).  A system whose
        residual went NaN/inf comes back with NaN movable coordinates:
        it fails alone, its batch-mates are untouched.
    """
    stacked = np.atleast_2d(coords)
    m_ids = np.nonzero(~fixed)[0]
    if len(m_ids) == 0:
        return coords.copy()
    start = stacked[:, m_ids]
    data, indices, indptr, diag, b = _quadratic_system(
        u, v, w, stacked, fixed, m_ids, anchor_targets, anchor_weights
    )
    solution = _jacobi_pcg(
        data,
        indices,
        indptr,
        diag.reshape(start.shape),
        b.reshape(start.shape),
        start,
        rtol=cg_tol,
        maxiter=cg_maxiter,
    )
    out = stacked.copy()
    out[:, m_ids] = solution
    return out.reshape(coords.shape)


def _quadratic_system(u, v, w, stacked, fixed, m_ids, anchor_targets, anchor_weights):
    """Block-diagonal CSR, diagonal and RHS of the K stacked systems
    (a function of its own so the edge-sized temporaries are gone
    before the PCG runs)."""
    num_systems, n = stacked.shape
    nm = len(m_ids)
    total = num_systems * nm
    # Unknown of vertex i of system k (vertex k * n + i of the
    # block-diagonal graph): k * nm + its movable rank, -1 if fixed.
    m_index = np.full((num_systems, n), -1, dtype=np.int64)
    m_index[:, m_ids] = np.arange(total).reshape(num_systems, nm)
    m_index = m_index.reshape(-1)
    flat = stacked.reshape(-1)

    iu_all = m_index[u]
    iv_all = m_index[v]
    mu = iu_all >= 0
    mv = iv_all >= 0

    # movable-movable edges
    both = mu & mv
    iu = iu_all[both]
    iv = iv_all[both]
    ww = w[both]

    # movable-fixed edges contribute to diagonal and RHS.
    mask_uf = mu & ~mv
    mask_fu = mv & ~mu
    ii_uf = iu_all[mask_uf]
    ii_fu = iv_all[mask_fu]
    ww_uf = w[mask_uf]
    ww_fu = w[mask_fu]
    # Edge-sized arrays go before the sort: this transient is the flat round's peak.
    del iu_all, iv_all, mu, mv

    # One bincount accumulates each bin sequentially in element order,
    # matching the historical np.add.at call sequence bit for bit.  A
    # bin only ever sees its own system's edges, in that system's
    # order, so stacking systems does not reorder any sum.
    # (bincount of an empty edge set comes back integer: hence astype.)
    diag = np.bincount(
        np.concatenate([iu, iv, ii_uf, ii_fu]),
        weights=np.concatenate([ww, ww, ww_uf, ww_fu]),
        minlength=total,
    ).astype(float, copy=False)
    b = np.bincount(
        np.concatenate([ii_uf, ii_fu]),
        weights=np.concatenate([ww_uf * flat[v[mask_uf]], ww_fu * flat[u[mask_fu]]]),
        minlength=total,
    ).astype(float, copy=False)

    # anchors (pseudo nets to spreading targets / seed positions)
    if anchor_targets is not None and anchor_weights is not None:
        aw = np.broadcast_to(anchor_weights, stacked.shape)[:, m_ids].reshape(-1)
        diag += aw
        b += aw * np.atleast_2d(anchor_targets)[:, m_ids].reshape(-1)

    # Guard isolated vertices (no edges, no anchors).
    isolated = diag <= 0
    if isolated.any():
        diag[isolated] = 1.0
        b[isolated] = stacked[:, m_ids].reshape(-1)[isolated]

    # Fused (row, col) keys of the COO entries: both orientations of
    # every movable-movable edge, then the diagonal.
    unknowns = np.arange(total)
    span = np.int64(total)
    keys = np.concatenate([iu * span + iv, iv * span + iu, unknowns * span + unknowns])
    vals = np.concatenate([-ww, -ww, diag])
    del iu, iv, ww
    return (*_assemble_csr(keys, vals, total), diag, b)


def _assemble_csr(
    key: np.ndarray, vals: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO entries, given as fused ``row * n + col`` keys with at least
    one (the diagonal) per row -> deduplicated CSR arrays.

    Entries are stable-sorted by (row, col); each group of duplicates is
    summed by ``np.add.reduceat`` over that group alone, whose
    association is NumPy's, not left to right: ``v0 + (v1 + v2)`` for
    three, pairwise from nine.  So it is *not* bitwise
    ``sp.coo_matrix(...).tocsr()`` (which adds left to right); but a
    group holds one system's entries in that system's order, so no sum
    depends on the batch.  (Skipping coo_matrix avoids scipy validation
    that rivals the solve itself on small systems.)
    """
    # One stable sort on the fused key: row-major, column-minor, ties
    # in input order.
    order, k_sorted = sort_ints(key, n * n)
    v_sorted = vals[order]
    del order  # (peak memory, as above)
    first = np.ones(len(k_sorted) + 1, dtype=bool)
    np.not_equal(k_sorted[1:], k_sorted[:-1], out=first[1:-1])
    starts = np.flatnonzero(first[:-1])
    keys = k_sorted[starts]
    del k_sorted
    data = v_sorted[starts]
    # Most groups are single entries; reduce only the others, packed.
    grouped = ~(first[:-1] & first[1:])
    data[grouped[starts]] = np.add.reduceat(
        v_sorted[grouped], np.flatnonzero(first[:-1][grouped])
    )
    rows = keys // n
    indices = keys - rows * n
    new_row = np.ones(len(rows), dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    indptr = np.append(np.flatnonzero(new_row), len(rows))
    return data, indices, indptr


def _jacobi_pcg(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    diag: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    rtol: float = 1e-6,
    maxiter: int = 300,
) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients on K stacked SPD systems.

    ``diag``, ``b`` and ``x0`` are ``(K, n)`` blocks; the CSR arrays
    hold the ``K * n``-square block-diagonal matrix whose k-th block is
    system k.  All systems iterate in lockstep — one ``csr_matvec`` and
    a handful of ``(K, n)`` array operations per iteration instead of
    K times as many tiny ones — but each keeps its own ``rho``, step
    sizes, stopping test and iteration count, so its iterates are those
    of a lone solve.  A system that stops has its solution saved there
    and then, and rides along with zero step sizes until the last one
    stops.

    Per system, the recurrence and stopping rule are those of
    ``scipy.sparse.linalg.cg`` (residual norm <= rtol * ||b||),
    bypassing scipy's per-call dispatch: the matvec goes straight to
    the ``csr_matvec`` kernel (identical row arithmetic to ``A.dot``)
    into a reused buffer, and norms are ``sqrt(v . v)`` — what
    ``np.linalg.norm`` computes for 1-D input.

    ``diag`` is the matrix diagonal (the B2B Laplacian keeps every
    diagonal entry strictly positive).

    Numeric guard: a system still running after ``maxiter`` iterations
    is counted (``b2b.cg_nonconverged``) and evented; a system whose
    residual goes NaN/inf stops at once and returns NaN.
    """
    num_systems, n = b.shape
    size = num_systems * n
    if _CSR_MATVEC is not None:
        buffer = np.zeros(size)

        def matvec(block: np.ndarray) -> np.ndarray:
            buffer[:] = 0.0
            _CSR_MATVEC(size, size, indptr, indices, data, block.reshape(-1), buffer)
            return buffer.reshape(b.shape)

    else:  # pragma: no cover - fallback for exotic scipy builds
        matrix = sp.csr_matrix((data, indices, indptr), shape=(size, size))

        def matvec(block: np.ndarray) -> np.ndarray:
            return matrix.dot(block.reshape(-1)).reshape(b.shape)

    # scipy.cg's zero-RHS special case: the solution is zero (and the
    # system is not counted as a solve).
    running = b.any(axis=1)
    solves = int(running.sum())
    out = np.zeros_like(b)
    x = x0.astype(float)
    inv_diag = 1.0 / diag
    r = b - matvec(x)
    atol = rtol * np.sqrt(row_dots(b, b))
    rho_prev = np.ones(num_systems)
    p = None
    iterations = 0
    nonfinite = 0
    # Stopped systems ride along on arbitrary values; theirs are the
    # only operands that can be inf/NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(maxiter):
            rr = row_dots(r, r)
            z = inv_diag * r
            rho = row_dots(r, z)
            # NaN fails `>=`: a poisoned residual stops its system.
            # rho == 0 is an exact-zero residual with atol == 0:
            # converged.
            go = running & (np.sqrt(rr) >= atol) & (rho != 0.0)
            if not go.all():
                stopped = running & ~go
                out[stopped] = x[stopped]
                bad = stopped & ~np.isfinite(rr)
                out[bad] = np.nan
                nonfinite += int(bad.sum())
                running = go
                if not go.any():
                    break
            if p is None:
                p = z.copy()
            else:
                p *= np.divide(rho, rho_prev, out=np.zeros(num_systems), where=go)[
                    :, None
                ]
                p += z
            ap = matvec(p)
            step = np.divide(
                rho, row_dots(p, ap), out=np.zeros(num_systems), where=go
            )[:, None]
            x += step * p
            r -= step * ap
            rho_prev = rho
            iterations += int(go.sum())
    unconverged = int(running.sum())
    out[running] = x[running]
    # Solver-effort counters for the perf/telemetry layers (no-ops
    # while disabled); a CG iteration blow-up is the first symptom of
    # an ill-conditioned B2B system (coincident pins, bad anchors).
    obs.count("b2b.solves", solves)
    obs.count("b2b.cg_iterations", iterations)
    if unconverged:
        obs.count("b2b.cg_nonconverged", unconverged)
        obs.event("b2b.cg_nonconverged", systems=unconverged, maxiter=maxiter)
    if nonfinite:
        obs.count("b2b.cg_nonfinite", nonfinite)
        obs.event("b2b.cg_nonfinite", systems=nonfinite)
    return out
