"""The routing half of the batching contract.

``repro.route`` is batch-native: one router over a stack of K
placements of the same netlist, an ordinary route its K = 1 case.  The
per-net / per-pin / per-tree-edge Python it replaced lives on in
``tests/route/reference.py``; everything here is ``==`` against it —
grid demand, per-net lengths (and their record order), routed
wirelength, the Eq. 5 congestion figure — whatever a system is stacked
with.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.subnetlist import (
    ROUTE_TARGET_CELLS,
    _SubContext,
    _virtual_die,
    extract_subnetlist,
)
from repro.core.vpr import VPRConfig
from repro.db.database import DesignDatabase
from repro.designs import DesignSpec, generate_design
from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, Floorplan
from repro.place.placer import GlobalPlacer, PlacerConfig
from repro.route import GCellGrid, GlobalRouter
from repro.route import steiner
from repro.route.global_route import _round_nm
from repro.route.steiner import MAX_MST_PINS, rsmt

from tests.netlist.reference import extract_subnetlist_reference
from tests.place.test_batched_identity import _chain_design
from tests.route.reference import (
    ReferenceRouter,
    prim_mst_matrix,
    prim_mst_small,
    rsmt_reference,
)

GRID = default_candidate_grid()
CONFIG = VPRConfig(placer_iterations=4)


def assert_same_routing(result, expected):
    assert result.error is None
    assert np.array_equal(result.grid.h_usage, expected.grid.h_usage)
    assert np.array_equal(result.grid.v_usage, expected.grid.v_usage)
    # Same records in the same order: degenerate nets, then routed order.
    assert list(result.net_lengths.items()) == list(expected.net_lengths.items())
    assert result.routed_wirelength == expected.routed_wirelength
    assert result.overflow_fraction == expected.overflow_fraction
    assert result.max_congestion == expected.max_congestion
    for percent in (1.0, 10.0):
        assert result.top_percent_congestion(percent) == expected.top_percent_congestion(
            percent
        )


def _grid(floorplan, target_cells=ROUTE_TARGET_CELLS):
    return GCellGrid.for_floorplan(floorplan, target_cells=target_cells)


def _commit(sub, die, x, y):
    """Write one system of a stack into the design, as the pre-batch
    sweep did before each route."""
    sub.floorplan, port_x, port_y = die
    for name, px, py in zip(sorted(sub.ports), port_x.tolist(), port_y.tolist()):
        sub.ports[name].x, sub.ports[name].y = px, py
    for inst in sub.instances:
        inst.x, inst.y = float(x[inst.index]), float(y[inst.index])


# ----------------------------------------------------------------------
# (a) any stack of the 20-shape grid == K = 1 routes == the reference
# ----------------------------------------------------------------------
def _cluster_cases():
    design = generate_design(DesignSpec("bi", 500, clock_period=0.8, seed=23))
    clustering = ppa_aware_clustering(
        DesignDatabase(design), PPAClusteringConfig(target_cluster_size=120)
    )
    largest = max(clustering.members(), key=len)
    chain = _chain_design("no_ports", 40, stray=False)
    collapsed = _chain_design("all_degenerate", 40, stray=False)
    return {
        "ported": (design, largest),
        "no_ports": (chain, list(range(chain.num_instances))),
        "all_degenerate": (collapsed, list(range(collapsed.num_instances))),
    }


@pytest.fixture(scope="module")
def routed_cases():
    """name -> (sub, oracle, dies, X, Y, the 20 reference results): the
    reference router runs on ``oracle``, the object sub the walk
    induces, never on a decode of the ``sub`` under test."""
    out = {}
    for name, (design, members) in _cluster_cases().items():
        sub = extract_subnetlist(design, members)
        oracle = extract_subnetlist_reference(design, members)
        area = sum(design.instances[i].area for i in members)
        dies = [_virtual_die(sub.num_ports, area, c) for c in GRID]
        problem = _SubContext(sub).placement_problem(dies)
        if name == "all_degenerate":
            # Every pin of every net on one point (within the 1 nm key).
            problem.x[:] = problem.cores.core_llx + 1.0
            problem.y[:] = problem.cores.core_lly + 1.0
        else:
            GlobalPlacer(
                problem,
                PlacerConfig(
                    max_iterations=CONFIG.placer_iterations,
                    min_iterations=2,
                    target_overflow=0.15,
                    telemetry=None,
                    seed=CONFIG.seed,
                ),
            ).run()
        x, y = problem.x.copy(), problem.y.copy()
        references = []
        for k, die in enumerate(dies):
            _commit(oracle, die, x[k], y[k])
            references.append(ReferenceRouter(oracle, _grid(die[0])).run())
        out[name] = (sub, oracle, dies, x, y, references)
    return out


class TestStackComposition:
    def test_fixture_covers_the_degenerate_clusters(self, routed_cases):
        assert routed_cases["ported"][0].num_ports > 0
        assert routed_cases["no_ports"][0].num_ports == 0
        for name in ("ported", "no_ports"):
            assert all(r.routed_wirelength > 0 for r in routed_cases[name][5])
        for reference in routed_cases["all_degenerate"][5]:
            assert reference.net_lengths and not any(reference.net_lengths.values())
            assert not reference.grid.h_usage.any()

    @pytest.mark.parametrize("case", ["ported", "no_ports", "all_degenerate"])
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        picks=st.lists(
            st.integers(0, len(GRID) - 1), min_size=1, max_size=len(GRID), unique=True
        )
    )
    def test_any_subset_in_any_order_equals_the_reference(
        self, routed_cases, case, picks
    ):
        sub, _oracle, dies, x, y, references = routed_cases[case]
        stacked = GlobalRouter(
            sub, grid=[_grid(dies[k][0]) for k in picks], x=x[picks], y=y[picks]
        ).run()
        assert len(stacked) == len(picks)
        for k, result in zip(picks, stacked):
            assert_same_routing(result, references[k])

    @pytest.mark.parametrize("case", ["ported", "no_ports", "all_degenerate"])
    def test_single_system_calls_equal_the_reference(self, routed_cases, case):
        """K = 1 both ways: a one-row stack, and the ordinary router
        reading the (oracle) design's own coordinates."""
        sub, oracle, dies, x, y, references = routed_cases[case]
        for k in (0, 7, 19):
            (one_row,) = GlobalRouter(
                sub, grid=[_grid(dies[k][0])], x=x[[k]], y=y[[k]]
            ).run()
            assert_same_routing(one_row, references[k])
            _commit(oracle, dies[k], x[k], y[k])
            assert_same_routing(
                GlobalRouter(oracle.arrays(), _grid(dies[k][0])).run(), references[k]
            )

    def test_flow_level_route_equals_the_reference(self):
        design = generate_design(DesignSpec("flow", 700, clock_period=0.8, seed=5))
        from repro.place import PlacementProblem

        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        for include_clock in (False, True):
            result = GlobalRouter(
                design.arrays(), design.floorplan, include_clock=include_clock
            ).run()
            expected = ReferenceRouter(
                design, _grid(design.floorplan, 2048), include_clock
            ).run()
            assert_same_routing(result, expected)


# ----------------------------------------------------------------------
# (b) constructed cases
# ----------------------------------------------------------------------
def _lattice(count, seed):
    """Distinct integer lattice points: many exactly equal Manhattan
    distances, so Prim's argmin keeps hitting ties."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(count))) + 1
    cells = rng.permutation(side * side)[:count]
    return [(float(c % side) * 2.5, float(c // side) * 2.5) for c in cells]


class TestTrees:
    @pytest.mark.parametrize("count", [4, 5, 31, 32, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lattice_ties_break_as_both_reference_prims(self, count, seed):
        points = _lattice(count, seed)
        tree = rsmt(points)
        expected = rsmt_reference(points)
        assert tree.edges == expected.edges and tree.length == expected.length
        # The scalar (< 32 pins) and matrix (>= 32) variants the parent
        # switched between agree with each other, hence with one Prim.
        min_x = min(p[0] for p in points)
        min_y = min(p[1] for p in points)
        relative = [(p[0] - min_x, p[1] - min_y) for p in points]
        for variant in (prim_mst_small, prim_mst_matrix):
            other = variant(relative)
            assert tree.edges == other.edges and tree.length == other.length

    def test_forest_equals_single_calls_whatever_the_grouping(self):
        rng = np.random.default_rng(3)
        sizes = [2, 7, 3, 7, 1, 4, 7, 33, 2, 33, 5, 0, 3]
        nets = [
            _lattice(k, 10 + i)
            if i % 2
            else [(float(a), float(b)) for a, b in rng.uniform(0, 90, (k, 2))]
            for i, k in enumerate(sizes)
        ]
        flat = np.array([p for net in nets for p in net]).reshape(-1, 2)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        forest = rsmt(flat[:, 0], flat[:, 1], offsets)
        assert forest.edge_offsets.tolist() == np.concatenate(
            ([0], np.cumsum([max(k - 1, 0) for k in sizes]))
        ).tolist()
        for s, net in enumerate(nets):
            expected = rsmt_reference(net)
            lo, hi = forest.edge_offsets[s], forest.edge_offsets[s + 1]
            edges = zip(
                (forest.edge_a[lo:hi] - offsets[s]).tolist(),
                (forest.edge_b[lo:hi] - offsets[s]).tolist(),
            )
            assert list(edges) == expected.edges
            assert forest.length[s] == expected.length

    def test_star_above_the_pin_cap(self):
        rng = np.random.default_rng(7)
        points = [
            (float(a), float(b)) for a, b in rng.uniform(0, 200, (MAX_MST_PINS + 6, 2))
        ]
        tree = rsmt(points)
        assert tree.edges == [(0, i) for i in range(1, len(points))]
        total = 0.0  # left to right, as the parent's sum() accumulated
        for px, py in points[1:]:
            total += abs(points[0][0] - px) + abs(points[0][1] - py)
        assert tree.length == total

    def test_miss_counter_counts_the_4_to_24_pin_trees_built(self):
        from repro import perf

        sizes = [2, 3, 4, 4, 24, 25, 9]
        flat = np.array([p for k in sizes for p in _lattice(k, k)])
        perf.enable()
        perf.reset()
        try:
            rsmt(flat[:, 0], flat[:, 1], np.concatenate(([0], np.cumsum(sizes))))
            assert perf.counter_value("steiner.rsmt.miss") == 4
            assert perf.counter_value("steiner.rsmt.hit") == 0
        finally:
            perf.disable()
        steiner.clear_rsmt_cache()  # documented no-op, still importable


def _pin_design(nets, die=100.0):
    """One INV per point; each net drives from its first point."""
    lib = make_library()
    design = Design("pins", Floorplan(die_width=die, die_height=die, core_margin=0))
    for n, points in enumerate(nets):
        net = design.add_net(f"n{n}")
        for i, (px, py) in enumerate(points):
            cell = design.add_instance(f"c{n}_{i}", lib["INV_X1"])
            cell.x, cell.y = px, py
            design.connect_instance_pin(net, cell, "Y" if i == 0 else "A")
    return design


def _route_both(design, prepare=lambda grid: None):
    grids = [_grid(design.floorplan, 2048), _grid(design.floorplan, 2048)]
    for grid in grids:
        prepare(grid)
    return (
        GlobalRouter(design.arrays(), grid=grids[0]).run(),
        ReferenceRouter(design, grids[1]).run(),
    )


class TestRoundingAndDedup:
    def test_round_nm_is_python_round_at_the_half_way_hazard(self):
        # (n + 0.5) / 1000 is stored a hair above or below the decimal
        # half, yet times 1000 it is often exactly n + 0.5, which rint
        # sends to the even neighbour whatever side the stored value is.
        values = np.array(
            [(n + 0.5) / 1000 for n in range(4000)]
            + [-(n + 0.5) / 1000 for n in range(50)]
            + [0.0005, 2.675, 1.0005, 17.3335, 1234.5675, 1e-9, 0.0, 123456.7895]
        )
        expected = [round(v, 3) for v in values.tolist()]
        assert _round_nm(values).tolist() == expected
        naive = (np.rint(values * 1000.0) / 1000.0).tolist()
        assert sum(a != b for a, b in zip(naive, expected)) > 100  # hazard is real

    def test_round_nm_on_ordinary_coordinates(self):
        values = np.random.default_rng(0).uniform(-50, 5000, 20000)
        assert _round_nm(values).tolist() == [round(v, 3) for v in values.tolist()]

    def test_half_way_pins_dedup_as_python_rounds_them(self):
        # round(0.0005, 3) == 0.001 (rint says 0.0): the first net's two
        # pins share a 1 nm key and the net is degenerate; the second
        # net's pins (0.0015 rounds to 0.002 either way) stay apart.
        design = _pin_design([[(0.0005, 5.0), (0.001, 5.0)], [(0.0015, 9.0), (0.0, 9.0)]])
        result, expected = _route_both(design)
        assert_same_routing(result, expected)
        assert list(result.net_lengths.values()) == [0.0, 0.0015]

    def test_pins_within_one_nm_collapse_in_pin_order(self):
        design = _pin_design(
            [
                # 10.0004 joins the driver; 10.0006 is a point of its own.
                [(10.0, 10.0), (10.0004, 10.0), (60.0, 40.0), (10.0006, 10.0)],
                [(30.0, 30.0), (30.0002, 30.0003)],
                [(5.0, 80.0), (90.0, 80.0004), (5.0003, 80.0)],
            ]
        )
        result, expected = _route_both(design)
        assert_same_routing(result, expected)
        assert result.net_lengths[1] == 0.0


class TestKernel:
    def test_preloaded_grid_steers_the_l_choice(self):
        rng = np.random.default_rng(11)
        design = _pin_design(
            [
                [(float(a), float(b)) for a, b in rng.uniform(2, 98, (k, 2))]
                for k in (2, 2, 3, 5, 2, 8, 3, 2, 2, 13)
            ]
        )

        def preload(grid):
            demand = np.random.default_rng(5)
            grid.h_usage[:] = np.floor(demand.uniform(0, 3, grid.h_usage.shape) * grid.h_capacity)
            grid.v_usage[:] = np.floor(demand.uniform(0, 3, grid.v_usage.shape) * grid.v_capacity)

        result, expected = _route_both(design, preload)
        assert_same_routing(result, expected)
        empty, _ = _route_both(design)
        assert result.net_lengths != empty.net_lengths  # the demand mattered
        assert result.max_congestion > 1.0

    def test_net_with_every_edge_inside_one_gcell(self):
        grid = _grid(Floorplan(die_width=100.0, die_height=100.0, core_margin=0), 2048)
        cx, cy = 10.5 * grid.cell_width, 20.5 * grid.cell_height
        offsets = [(-0.3, -0.3), (0.3, 0.2), (0.1, -0.2), (-0.2, 0.3), (0.25, 0.25)]
        design = _pin_design(
            [
                [(cx + dx * grid.cell_width, cy + dy * grid.cell_height) for dx, dy in offsets],
                [(5.0, 5.0), (95.0, 60.0)],
            ]
        )
        result, expected = _route_both(design)
        assert_same_routing(result, expected)
        inside = rsmt_reference([(c.x, c.y) for c in design.instances[:5]])
        assert result.net_lengths[0] == inside.length > 0
        assert result.grid.h_usage[20, 10] == result.grid.v_usage[20, 10] == 0.0


class TestNumericGuard:
    def test_non_finite_system_fails_alone(self, routed_cases):
        from repro import perf, telemetry

        sub, _oracle, dies, x, y, references = routed_cases["ported"]
        picks = [3, 8, 12, 16]
        x, y = x[picks], y[picks]
        x[1, 0] = np.nan
        y[2, 5] = np.inf
        grids = [_grid(dies[k][0]) for k in picks]
        perf.enable()
        perf.reset()
        telemetry.enable()
        try:
            results = GlobalRouter(sub, grid=grids, x=x, y=y, telemetry_prefix=None).run()
            assert perf.counter_value("route.cost_nonfinite") == 2
            events = telemetry.get_session().events.export()
            assert [
                e["system"] for e in events if e["type"] == "route.cost_nonfinite"
            ] == [1, 2]
        finally:
            perf.disable()
            telemetry.disable()
        for row in (1, 2):
            assert "non-finite" in results[row].error
            assert np.isnan(results[row].routed_wirelength)
            assert not grids[row].h_usage.any() and not grids[row].v_usage.any()
        assert_same_routing(results[0], references[3])
        assert_same_routing(results[3], references[16])

    def test_non_finite_preloaded_demand_is_an_error_not_a_cost(self):
        design = _pin_design([[(5.0, 5.0), (95.0, 60.0)]])
        grid = _grid(design.floorplan, 2048)
        grid.h_usage[3, 3] = np.nan
        result = GlobalRouter(design.arrays(), grid=grid).run()
        assert "non-finite" in result.error and np.isnan(result.routed_wirelength)

    @pytest.mark.parametrize("width, height", [(0.0, 50.0), (50.0, 0.0)])
    def test_zero_capacity_die_is_diagnosed(self, width, height):
        with pytest.raises(ValueError, match="no routing capacity"):
            GCellGrid.for_floorplan(Floorplan(die_width=width, die_height=height))
