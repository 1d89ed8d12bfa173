"""The placement round as it ran before one coordinate sort per round
was shared by its consumers, kept as the tests' oracle.

Until then every solve/spread round of ``GlobalPlacer`` sorted the same
coordinates three times: ``hpwl_arrays`` reduced them per net with four
``reduceat`` calls, the next round's ``b2b_edges`` sorted every pin by
(net, coordinate) with a stable float ``argsort`` plus a radix pass,
and ``_equalize_axis`` sorted each row's movable cells again.  CSR
assembly (``_quadratic_system`` / ``_assemble_csr``) sorted its fused
keys by radix passes, split them with ``%`` and ``bincount`` and ran
``reduceat`` over every group, singletons included.

The bodies below are verbatim (only ``_assemble_csr``'s docstring is
corrected: its sums were never scipy's); ``solve_axis`` is the program's
solve around the old assembly, and ``ReferencePlacer`` is
``GlobalPlacer`` with the round methods (``_solve_round``, ``_spread``,
``_measure_round``) that called them.  ``hpwl_arrays`` itself is
unchanged in the program.  The program must agree with all of them bit
for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.place.b2b import MIN_SEPARATION, _jacobi_pcg, stable_argsort_ints
from repro.place.hpwl import hpwl_arrays
from repro.place.placer import GlobalPlacer
from repro.place.regions import clamp_regions
from repro.place.spreading import spread_displacement


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

    Entries are stable-sorted by (row, col) and each duplicate group is
    summed by ``np.add.reduceat``: ``v0 + pairwise(v1, ...)``, which is
    not left to right and so not ``sp.coo_matrix(...).tocsr()``'s sum
    (see ``test_round_oracle.py``).  Skipping the coo_matrix
    construction avoids per-solve scipy validation overhead that rivals
    the solve itself on small systems.
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


def spreading_targets(
    grid: DensityGrid,
    x: np.ndarray,
    y: np.ndarray,
    areas: np.ndarray,
    movable: np.ndarray,
    strength: float = 0.8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute spread target positions via per-band 1-D equalization.

    Within each horizontal band of bins, cells are re-mapped along x so
    cumulative cell area tracks cumulative capacity (and symmetrically
    along y within vertical bands).  ``strength`` in (0, 1] damps the
    move toward the fully-equalized position.

    Returns:
        (target_x, target_y) arrays over all vertices (fixed vertices
        keep their coordinates), shaped like ``x`` / ``y``.
    """
    fp = grid.floorplan
    target_x = x.copy()
    target_y = y.copy()
    ids = np.nonzero(movable)[0]
    if len(ids) == 0:
        return target_x, target_y

    _equalize_axis(
        ids, x, y, areas, target_x,
        lo=fp.core_llx, span=fp.core_width,
        band_lo=fp.core_lly, band_span=fp.core_height,
        bands=grid.bins_y, strength=strength,
    )
    _equalize_axis(
        ids, y, x, areas, target_y,
        lo=fp.core_lly, span=fp.core_height,
        band_lo=fp.core_llx, band_span=fp.core_width,
        bands=grid.bins_x, strength=strength,
    )
    return target_x, target_y


def _equalize_axis(
    ids: np.ndarray,
    primary: np.ndarray,
    secondary: np.ndarray,
    areas: np.ndarray,
    out: np.ndarray,
    lo,
    span,
    band_lo,
    band_span,
    bands: int,
    strength: float,
) -> None:
    """Equalize cumulative area along ``primary`` within secondary bands.

    ``lo``/``span``/``band_lo``/``band_span`` are floats, or ``(K, 1)``
    columns for ``(K, n)`` coordinates.  Each system's cells are sorted
    by (band, primary) and cumulated on their own row — never one
    cumsum across systems — and every band segment is then equalized
    with row gathers instead of a per-band Python loop.
    """
    rows = np.atleast_2d(primary[..., ids])
    band = (secondary[..., ids] - band_lo) / band_span * bands
    band = np.atleast_2d(np.fmin(np.fmax(band, 0), bands - 1).astype(np.int64))
    # np.lexsort((coord, band)) per row, as two stable passes.
    by_coord = np.argsort(rows, axis=1, kind="stable")
    order = np.take_along_axis(
        by_coord,
        stable_argsort_ints(np.take_along_axis(band, by_coord, axis=1), bands),
        axis=1,
    )
    sorted_band = np.take_along_axis(band, order, axis=1)
    sorted_area = areas[ids][order]
    sorted_coord = np.take_along_axis(rows, order, axis=1)
    cum = np.cumsum(sorted_area, axis=1)

    # Band boundaries in the sorted order, as the segment start / end
    # position of every cell.
    count = rows.shape[1]
    position = np.arange(count)
    is_start = np.ones(rows.shape, dtype=bool)
    is_start[:, 1:] = sorted_band[:, 1:] != sorted_band[:, :-1]
    start = np.maximum.accumulate(np.where(is_start, position, 0), axis=1)
    is_end = np.ones(rows.shape, dtype=bool)
    is_end[:, :-1] = is_start[:, 1:]
    end = np.minimum.accumulate(
        np.where(is_end, position, count - 1)[:, ::-1], axis=1
    )[:, ::-1]

    base = np.where(
        start > 0, np.take_along_axis(cum, np.maximum(start - 1, 0), axis=1), 0.0
    )
    total = np.take_along_axis(cum, end, axis=1) - base
    live = total > 0
    centred = (cum - base) - sorted_area * 0.5
    equalized = lo + centred / np.where(live, total, 1.0) * span
    moved = sorted_coord + strength * (equalized - sorted_coord)
    result = np.where(live, moved, sorted_coord)
    np.put_along_axis(np.atleast_2d(out), ids[order], result, axis=1)


class ReferencePlacer(GlobalPlacer):
    """``GlobalPlacer`` whose rounds run the kernels above."""


    def _solve_round(
        self,
        anchor_x: Optional[np.ndarray],
        anchor_y: Optional[np.ndarray],
        anchor_w: Optional[np.ndarray],
        apply_regions: bool = True,
    ) -> None:
        """One B2B linearized quadratic solve of every active system's
        x and y axes (anchors are rows over the active systems)."""
        problem = self.problem
        active = self._active
        coords = np.concatenate([self._x[active], self._y[active]])
        anchors = None
        if anchor_x is not None:
            anchors = np.concatenate([anchor_x, anchor_y])
        u, v, w = b2b_edges(
            problem.pin_vertex, problem.net_offsets, problem.net_weights, coords
        )
        solved = solve_axis(u, v, w, coords, problem.fixed, anchors, anchor_w)
        self._x[active] = solved[: len(active)]
        self._y[active] = solved[len(active) :]
        failed = ~np.isfinite(solved).all(axis=1)
        if failed.any():
            failed = failed[: len(active)] | failed[len(active) :]
            for system in active[failed]:
                self._errors[system] = "non-finite B2B solve"
            self._active = active[~failed]
        problem.clip_to_core()
        if apply_regions:
            clamp_regions(self.regions, problem.x, problem.y)

    def _spread(self):
        """Spreading targets of the active systems (rows), plus the
        ``spread_move`` signal when telemetry wants it."""
        problem = self.problem
        active = self._active
        x, y = self._x[active], self._y[active]
        target_x, target_y = spreading_targets(
            self._active_grid(),
            x,
            y,
            problem.areas,
            problem.movable,
            strength=self.config.spread_strength,
        )
        spread_move = None
        if self._telemetry_on():
            spread_move = dict(
                zip(
                    active.tolist(),
                    spread_displacement(target_x, target_y, x, y, problem.movable),
                )
            )
        return target_x, target_y, spread_move

    def _measure_round(self, iteration: int, spread_move=None) -> np.ndarray:
        """Record HPWL (and, past round 0, overflow) of the systems
        that just solved; returns their overflow."""
        problem = self.problem
        active = self._active
        if not len(active):
            return np.empty(0)
        x, y = self._x[active], self._y[active]
        hpwl = hpwl_arrays(problem.pin_vertex, problem.net_offsets, x, y)
        overflow = None
        if iteration:
            overflow = self._active_grid().overflow(
                x, y, problem.areas, problem.movable, self.config.target_density
            )
            self._overflow[active] = overflow
        self._iterations[active] = iteration
        for row, system in enumerate(active.tolist()):
            self._traces[system].append(float(hpwl[row]))
            self._observe_round(
                iteration,
                self._traces[system][-1],
                None if overflow is None else float(overflow[row]),
                None if spread_move is None else float(spread_move[system]),
            )
        return overflow
