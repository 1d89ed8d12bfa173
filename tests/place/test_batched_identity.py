"""The batching contract: a system's results never depend on its batch.

Kernel level — every batch-native kernel in ``repro.place`` returns, in
row ``k`` of a stacked call, bit for bit what the lone call on system
``k`` returns (and, where the implementation was rewritten around a
different NumPy primitive, what the pre-batch loop computed: those
loops live on here as references).

V-P&R level — any subset of the 20-shape grid, in any order, evaluated
as one batch yields per-candidate costs bitwise equal to K = 1 calls,
which is what lets serial, pool, fleet, retry, resume and the on-disk
cache stay interchangeable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig, VPRFramework, extract_subnetlist
from repro.db.database import DesignDatabase
from repro.designs import DesignSpec, generate_design
from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, Floorplan
from repro.place import b2b
from repro.place.b2b import b2b_edges, row_dots, solve_axis, stable_argsort_ints
from repro.place.hpwl import hpwl_arrays
from repro.place.problem import CoreBoxes, PlacementProblem
from repro.place.spreading import DensityGrid, spreading_targets

GRID = default_candidate_grid()


# ----------------------------------------------------------------------
# NumPy primitives the bit-identity argument leans on
# ----------------------------------------------------------------------
class TestPrimitives:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 100, 376, 4001])
    def test_vecdot_row_is_1d_matmul(self, n):
        """(d) ``np.vecdot(R, Z)[k]`` == ``R[k] @ Z[k]`` bitwise on the
        installed NumPy — and ``row_dots`` holds either way."""
        rng = np.random.default_rng(n)
        a = rng.standard_normal((5, n))
        c = rng.standard_normal((5, n))
        singles = np.array([a[k] @ c[k] for k in range(5)])
        assert np.array_equal(np.vecdot(a, c), singles)
        assert np.array_equal(row_dots(a, c), singles)

    def test_row_dots_falls_back_to_a_loop(self, monkeypatch):
        monkeypatch.setattr(b2b, "_vecdot_is_ddot", lambda: False)
        a = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(row_dots(a, a), [a[k] @ a[k] for k in range(3)])

    def test_row_sums_are_1d_sums(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((7, 529))
        assert np.array_equal(
            block.sum(axis=1), [block[k].sum() for k in range(7)]
        )
        assert np.array_equal(
            block.reshape(7, 23, 23).reshape(7, -1).sum(axis=-1),
            [block[k].reshape(23, 23).sum() for k in range(7)],
        )

    def test_scaled_standard_normal_is_normal(self):
        """The shared initial jitter: ``rng.normal(0, s, n)`` is ``s``
        times the standard-normal draw, stream position included."""
        a = np.random.default_rng(3)
        c = np.random.default_rng(3)
        for scale in (0.02 * 13.7, 0.1, 2.5e-3):
            assert np.array_equal(
                a.normal(0.0, scale, 257), scale * c.standard_normal(257)
            )

    def test_radix_argsort_is_the_stable_argsort(self):
        rng = np.random.default_rng(1)
        for bound in (7, 600, 70_000, 15_040 * 15_040):
            keys = rng.integers(0, bound, size=(3, 500))
            assert np.array_equal(
                stable_argsort_ints(keys, bound),
                np.argsort(keys, axis=-1, kind="stable"),
            )


# ----------------------------------------------------------------------
# Kernels: stacked call == lone calls (== the pre-batch loops)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stacked_problem():
    """One netlist, 6 virtual dies, coordinates with ties and cells
    piled on the core edge (as after a clip)."""
    design = generate_design(DesignSpec("bi", 260, clock_period=0.8, seed=5))
    problem = PlacementProblem(design.arrays(), design.floorplan)
    rng = np.random.default_rng(2)
    n = problem.num_vertices
    floorplans = [
        Floorplan(die_width=w, die_height=h, core_margin=1.0)
        for w, h in [(30, 30), (24, 40), (41, 23), (33, 33), (28, 36), (52, 19)]
    ]
    cores = CoreBoxes.of(floorplans)
    x = cores.core_llx + cores.core_width * rng.random((6, n))
    y = cores.core_lly + cores.core_height * rng.random((6, n))
    x[:, ::9] = cores.core_llx
    y[:, 1::11] = cores.core_ury
    x[:, 2::13] = x[:, 3::13][:, : x[:, 2::13].shape[1]]
    return problem, floorplans, cores, x, y


def _lexsort_edges(pin_vertex, net_offsets, net_weights, coords):
    """The pre-batch edge builder's ordering: one ``np.lexsort``."""
    num_nets = len(net_offsets) - 1
    pin_net = np.repeat(np.arange(num_nets), np.diff(net_offsets))
    order = np.lexsort((coords[pin_vertex], pin_net))
    return pin_vertex[order]


class TestKernelIdentity:
    def test_b2b_edges_and_solve(self, stacked_problem):
        problem, _fps, _cores, x, _y = stacked_problem
        args = (problem.pin_vertex, problem.net_offsets, problem.net_weights)
        n = problem.num_vertices
        anchors = x + 0.5
        weights = np.full(n, 3e-3)
        u, v, w = b2b_edges(*args, x)
        solved = solve_axis(u, v, w, x, problem.fixed, anchors, weights)
        free = solve_axis(u, v, w, x, problem.fixed)
        cursor = 0
        for k in range(len(x)):
            uk, vk, wk = b2b_edges(*args, x[k])
            stop = cursor + len(uk)
            assert np.array_equal(u[cursor:stop], uk + k * n)
            assert np.array_equal(v[cursor:stop], vk + k * n)
            assert np.array_equal(w[cursor:stop], wk)
            cursor = stop
            assert np.array_equal(
                solved[k],
                solve_axis(uk, vk, wk, x[k], problem.fixed, anchors[k], weights),
            )
            assert np.array_equal(free[k], solve_axis(uk, vk, wk, x[k], problem.fixed))
        assert cursor == len(u)

    def test_pin_order_is_lexsort(self, stacked_problem):
        problem, _fps, _cores, x, _y = stacked_problem
        args = (problem.pin_vertex, problem.net_offsets, problem.net_weights)
        for k in range(len(x)):
            # The min->max edges expose the first / last sorted pin of
            # every net; inner edges the order in between.
            sv = _lexsort_edges(*args, x[k])
            u, v, _w = b2b_edges(*args, x[k])
            starts, ends = problem.net_offsets[:-1], problem.net_offsets[1:] - 1
            keep = sv[starts] != sv[ends]
            assert np.array_equal(u[-int(keep.sum()):], sv[starts][keep])
            assert np.array_equal(v[-int(keep.sum()):], sv[ends][keep])

    def test_solver_counts_per_system(self, stacked_problem):
        from repro import perf

        problem, _fps, _cores, x, _y = stacked_problem
        args = (problem.pin_vertex, problem.net_offsets, problem.net_weights)

        def counted(coords):
            perf.enable()
            perf.reset()
            try:
                solve_axis(*b2b_edges(*args, coords), coords, problem.fixed)
                return (
                    perf.counter_value("b2b.solves"),
                    perf.counter_value("b2b.cg_iterations"),
                )
            finally:
                perf.disable()

        singles = [counted(x[k]) for k in range(len(x))]
        assert counted(x) == tuple(map(sum, zip(*singles)))
        assert counted(x)[0] == len(x)

    def test_spreading_overflow_hpwl_clip(self, stacked_problem):
        problem, floorplans, cores, x, y = stacked_problem
        movable = problem.movable
        stacked_grid = DensityGrid(cores, 9, 9)
        tx, ty = spreading_targets(stacked_grid, x, y, problem.areas, movable, 0.8)
        overflow = stacked_grid.overflow(x, y, problem.areas, movable, 1.0)
        util = stacked_grid.utilization(x, y, problem.areas, movable)
        hpwl = hpwl_arrays(problem.pin_vertex, problem.net_offsets, x, y)
        problem.stack_dies(floorplans, x[:, problem.num_movable_instances:],
                           y[:, problem.num_movable_instances:])
        problem.x[:] = x * 1.3 - 2.0
        problem.y[:] = y * 1.3 - 2.0
        problem.clip_to_core()
        for k, fp in enumerate(floorplans):
            grid = DensityGrid(fp, 9, 9)
            sx, sy = spreading_targets(grid, x[k], y[k], problem.areas, movable, 0.8)
            assert np.array_equal(tx[k], sx) and np.array_equal(ty[k], sy)
            rx, ry = _reference_targets(grid, x[k], y[k], problem.areas, movable, 0.8)
            assert np.array_equal(tx[k], rx) and np.array_equal(ty[k], ry)
            assert overflow[k] == grid.overflow(x[k], y[k], problem.areas, movable, 1.0)
            assert np.array_equal(
                util[k], _reference_utilization(grid, x[k], y[k], problem.areas, movable)
            )
            assert hpwl[k] == hpwl_arrays(
                problem.pin_vertex, problem.net_offsets, x[k], y[k]
            )
            cx, cy = x[k] * 1.3 - 2.0, y[k] * 1.3 - 2.0
            cx[movable] = np.clip(cx[movable], fp.core_llx, fp.core_urx)
            cy[movable] = np.clip(cy[movable], fp.core_lly, fp.core_ury)
            assert np.array_equal(problem.x[k], cx)
            assert np.array_equal(problem.y[k], cy)


def _reference_utilization(grid, x, y, areas, movable):
    """Pre-batch ``DensityGrid.utilization``: ``np.add.at``."""
    fp = grid.floorplan
    bin_area = (fp.core_width / grid.bins_x) * (fp.core_height / grid.bins_y)
    bx, by = grid.bin_of(x[movable], y[movable])
    usage = np.zeros((grid.bins_y, grid.bins_x))
    np.add.at(usage, (by, bx), areas[movable])
    return usage / bin_area


def _reference_targets(grid, x, y, areas, movable, strength):
    """Pre-batch ``spreading_targets``: lexsort + per-band loop."""
    fp = grid.floorplan
    target_x, target_y = x.copy(), y.copy()
    ids = np.nonzero(movable)[0]

    def equalize(primary, secondary, out, lo, span, band_lo, band_span, bands):
        band = ((secondary[ids] - band_lo) / band_span * bands).astype(np.int64)
        band = np.clip(band, 0, bands - 1)
        order = np.lexsort((primary[ids], band))
        sorted_ids = ids[order]
        sorted_band = band[order]
        sorted_area = areas[sorted_ids]
        boundaries = np.nonzero(np.diff(sorted_band))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_ids)]))
        cum = np.cumsum(sorted_area)
        for s, e in zip(starts, ends):
            base = cum[s - 1] if s > 0 else 0.0
            total = cum[e - 1] - base
            if total <= 0:
                continue
            centred = (cum[s:e] - base) - sorted_area[s:e] * 0.5
            equalized = lo + centred / total * span
            segment = sorted_ids[s:e]
            out[segment] = primary[segment] + strength * (equalized - primary[segment])

    equalize(x, y, target_x, fp.core_llx, fp.core_width,
             fp.core_lly, fp.core_height, grid.bins_y)
    equalize(y, x, target_y, fp.core_lly, fp.core_height,
             fp.core_llx, fp.core_width, grid.bins_x)
    return target_x, target_y


# ----------------------------------------------------------------------
# V-P&R: any batch composition == K = 1 calls
# ----------------------------------------------------------------------
def _chain_design(name: str, length: int, stray: bool) -> Design:
    """A port-less inverter/NAND ladder; ``stray`` adds an instance
    that no net touches (an isolated movable)."""
    lib = make_library()
    design = Design(name, Floorplan(die_width=20.0, die_height=20.0))
    cells = []
    for i in range(length):
        master = lib["NAND2_X1"] if i % 3 == 2 else lib["INV_X1"]
        cells.append(design.add_instance(f"c{i}", master))
    for i in range(length - 1):
        net = design.add_net(f"n{i}")
        design.connect_instance_pin(net, cells[i], "Y")
        design.connect_instance_pin(net, cells[i + 1], "A")
        if cells[(i + 5) % length].master.name == "NAND2_X1" and (i + 5) % length > i + 1:
            design.connect_instance_pin(net, cells[(i + 5) % length], "B")
    if stray:
        design.add_instance("stray", lib["INV_X1"])
    return design


def _cluster_cases():
    design = generate_design(DesignSpec("bi", 500, clock_period=0.8, seed=23))
    clustering = ppa_aware_clustering(
        DesignDatabase(design), PPAClusteringConfig(target_cluster_size=120)
    )
    largest = max(clustering.members(), key=len)
    cases = {"ported": (design, largest)}
    for name, stray in (("no_ports", False), ("isolated_movable", True)):
        chain = _chain_design(name, 40, stray)
        cases[name] = (chain, list(range(chain.num_instances)))
    return cases


@pytest.fixture(scope="module")
def cluster_cases():
    """name -> (framework, sub, cell_area, the 20 K = 1 cost pairs)."""
    out = {}
    for name, (design, members) in _cluster_cases().items():
        framework = VPRFramework(VPRConfig(placer_iterations=4))
        sub = extract_subnetlist(design, members)
        area = sum(design.instances[i].area for i in members)
        singles = [
            framework.evaluate_candidate(sub, area, candidate) for candidate in GRID
        ]
        out[name] = (
            framework,
            sub,
            area,
            [(e.hpwl_cost, e.congestion_cost) for e in singles],
        )
    return out


class TestBatchComposition:
    def test_fixture_covers_the_degenerate_clusters(self, cluster_cases):
        assert cluster_cases["ported"][1].num_ports > 0
        assert cluster_cases["no_ports"][1].num_ports == 0
        sub = cluster_cases["isolated_movable"][1]
        indptr, _rows = sub.instance_pin_csr()
        stray = sub.inst_names.index("stray")
        assert indptr[stray] == indptr[stray + 1]  # no pins
        for _framework, _sub, _area, singles in cluster_cases.values():
            assert all(np.isfinite(pair).all() for pair in singles)

    @pytest.mark.parametrize("case", ["ported", "no_ports", "isolated_movable"])
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        picks=st.lists(
            st.integers(0, len(GRID) - 1), min_size=1, max_size=len(GRID), unique=True
        )
    )
    def test_any_subset_in_any_order_equals_single_calls(
        self, cluster_cases, case, picks
    ):
        """(a) batch composition cannot change a candidate's costs."""
        framework, sub, area, singles = cluster_cases[case]
        evaluations = framework.evaluate_candidates(
            sub, area, [GRID[k] for k in picks]
        )
        assert [e.candidate for e in evaluations] == [GRID[k] for k in picks]
        for k, evaluation in zip(picks, evaluations):
            assert (evaluation.hpwl_cost, evaluation.congestion_cost) == singles[k]
