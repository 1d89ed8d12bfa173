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
from typing import Optional, Tuple

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


def b2b_edges(
    pin_vertex: np.ndarray,
    net_offsets: np.ndarray,
    net_weights: np.ndarray,
    coords: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build B2B edges at the current linearisation point(s).

    Returns ``(u, v, w)`` arrays of graph edges.  Vectorized: pins are
    sorted per net by coordinate; the first/last pin of each net is the
    boundary pin.

    With ``coords`` of shape ``(K, n)`` the edges of all K systems come
    back in one list, grouped by system, and vertex ids address
    ``coords.ravel()`` (vertex ``i`` of system ``k`` is ``k * n + i``)
    — the edge list of the block-diagonal graph, ready for
    :func:`solve_axis`.  Within a system the edges are the ``(n,)``
    call's, in the same order.
    """
    num_nets = len(net_offsets) - 1
    if num_nets == 0:
        empty = np.zeros(0)
        return empty.astype(np.int64), empty.astype(np.int64), empty

    stacked = np.atleast_2d(coords)
    num_systems, n = stacked.shape
    degrees = np.diff(net_offsets)
    pin_net = np.repeat(np.arange(num_nets, dtype=np.int64), degrees)
    pin_coord = stacked[:, pin_vertex]
    # Pins sorted by (net, coord), ties in input order — what
    # np.lexsort((pin_coord, pin_net)) gives one system — as two stable
    # passes per row: by coordinate, then by net.
    by_coord = np.argsort(pin_coord, axis=1, kind="stable")
    order = np.take_along_axis(
        by_coord, stable_argsort_ints(pin_net[by_coord], num_nets), axis=1
    )
    sv = pin_vertex[order]  # vertices sorted by (net, coord)
    coord_sorted = np.take_along_axis(pin_coord, order, axis=1)
    # pin_net is ascending, so sorted position -> net is pin_net itself,
    # in every row.

    starts = net_offsets[:-1]
    ends = net_offsets[1:] - 1

    min_vertex = sv[:, starts]
    max_vertex = sv[:, ends]

    inv_deg = 2.0 / np.maximum(degrees - 1, 1)
    pin_weight = (net_weights * inv_deg)[pin_net]
    min_coord = coord_sorted[:, starts]
    max_coord = coord_sorted[:, ends]

    # Connect every non-boundary pin to both boundary pins.
    boundary = np.zeros(len(pin_net), dtype=bool)
    boundary[starts] = True
    boundary[ends] = True
    inner = np.nonzero(~boundary)[0]
    inner_net = pin_net[inner]
    inner_vertex = sv[:, inner]
    inner_coord = coord_sorted[:, inner]
    inner_weight = pin_weight[inner]

    # Edge set per system: (inner, min) and (inner, max) over the
    # sorted pin order, plus the direct (min, max) edge once per net.
    d_min = np.maximum(np.abs(inner_coord - min_coord[:, inner_net]), MIN_SEPARATION)
    d_max = np.maximum(np.abs(max_coord[:, inner_net] - inner_coord), MIN_SEPARATION)
    span = np.maximum(np.abs(max_coord - min_coord), MIN_SEPARATION)
    u = np.concatenate([inner_vertex, inner_vertex, min_vertex], axis=1)
    v = np.concatenate(
        [min_vertex[:, inner_net], max_vertex[:, inner_net], max_vertex], axis=1
    )
    w = np.concatenate(
        [inner_weight / d_min, inner_weight / d_max, net_weights * inv_deg / span],
        axis=1,
    )
    keep = u != v
    offset = (np.arange(num_systems, dtype=np.int64) * n)[:, None]
    return (u + offset)[keep], (v + offset)[keep], w[keep]


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
    movable = ~fixed
    local = np.full(n, -1, dtype=np.int64)
    local[m_ids] = np.arange(nm)
    # Lookups over the block-diagonal vertex numbering (k * n + i);
    # movable vertex i of system k is unknown k * nm + local[i].
    flat = stacked.reshape(-1)
    movable_flat = np.tile(movable, num_systems)
    m_index = (
        local + (np.arange(num_systems, dtype=np.int64) * nm)[:, None]
    ).reshape(-1)
    total = num_systems * nm

    mu = movable_flat[u]
    mv = movable_flat[v]

    # movable-movable edges
    both = mu & mv
    iu = m_index[u[both]]
    iv = m_index[v[both]]
    ww = w[both]

    # movable-fixed edges contribute to diagonal and RHS.
    mask_uf = mu & ~mv
    mask_fu = mv & ~mu
    ii_uf = m_index[u[mask_uf]]
    ii_fu = m_index[v[mask_fu]]
    ww_uf = w[mask_uf]
    ww_fu = w[mask_fu]

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
    return (*_assemble_csr(keys, np.concatenate([-ww, -ww, diag]), total), diag, b)


def _assemble_csr(
    key: np.ndarray, vals: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO entries, given as fused ``row * n + col`` keys -> deduplicated
    CSR arrays.

    Matches ``sp.coo_matrix(...).tocsr()`` bit-for-bit: entries are
    stable-sorted by (row, col) — the order scipy's row bucketing plus
    stable column sort produces — and duplicates summed left-to-right
    in that order (``np.add.reduceat`` over the tiny duplicate groups
    reduces sequentially, like ``csr_sum_duplicates``).  Skipping the
    coo_matrix construction avoids per-solve scipy validation overhead
    that rivals the solve itself on small systems.
    """
    # One stable sort on the fused key: row-major, column-minor, ties
    # in input order.
    order = stable_argsort_ints(key, n * n)
    k_sorted = key[order]
    v_sorted = vals[order]
    first = np.empty(len(k_sorted), dtype=bool)
    first[0] = True
    np.not_equal(k_sorted[1:], k_sorted[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    data = np.add.reduceat(v_sorted, starts)
    keys = k_sorted[starts]
    indices = keys % n
    counts = np.bincount(keys // n, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
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
