"""One coordinate sort per placement round, against the rounds it
replaced (``tests/place/reference.py``).

* ``NetPins.sort`` orders every row's pins as ``np.lexsort((coord, net))``
  does — ties (cells clipped onto the core edge) in pin order, NaNs
  last — and its edges, HPWL and spreading order are the oracle's.
* CSR assembly reduces only the duplicate groups and splits its keys
  with ``//``: data, indices and indptr are the oracle's.  A duplicate
  group sums as ``np.add.reduceat`` does, ``v0 + pairwise(v1, ...)``,
  which is not scipy's left-to-right sum.
* A whole ``GlobalPlacer`` run — full and incremental, lone and stacked,
  with tied coordinates, a vertex with two pins on a net, all-fixed
  nets, isolated movables and a NaN system — gives the oracle round's
  coordinates, HPWL traces, overflow, errors and solver counts bit for
  bit.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.designs import DesignSpec, generate_design
from repro.designs.nangate45 import make_library
from repro.netlist.design import Design, Floorplan
from repro.place import b2b
from repro.place.b2b import NetPins, b2b_edges, sort_ints
from repro.place.hpwl import hpwl_arrays
from repro.place.placer import GlobalPlacer, PlacerConfig
from repro.place.problem import PlacementProblem
from repro.place.regions import RegionConstraint
from repro.place.spreading import DensityGrid, spreading_targets
from tests.place import reference

# A NaN system must not cast NaN coordinates to integer bins.
pytestmark = pytest.mark.filterwarnings(
    "error:invalid value encountered in cast:RuntimeWarning"
)

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Drawn netlists
# ----------------------------------------------------------------------
@st.composite
def netlists(draw, max_vertices=30):
    """``(n, pin_vertex, net_offsets, net_weights, fixed)``: nets of 2-6
    pins that may repeat a vertex, some vertices on no net, some nets
    on fixed vertices only."""
    n = draw(st.integers(3, max_vertices))
    fixed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    nets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=6),
            min_size=1,
            max_size=2 * n,
        )
    )
    fixed_ids = np.flatnonzero(fixed).tolist()
    if len(fixed_ids) >= 2:
        nets.append(fixed_ids[:2])
    pin_vertex = np.array([v for net in nets for v in net], dtype=np.int64)
    net_offsets = np.concatenate([[0], np.cumsum([len(net) for net in nets])])
    weights = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                                     min_size=len(nets), max_size=len(nets))))
    return n, pin_vertex, net_offsets, weights, fixed


def _coords(draw, rows, n, lo=2.0, hi=40.0):
    """Rows of coordinates with exact ties: some cells on the core
    edges, some sharing a coordinate."""
    values = st.one_of(
        st.sampled_from([lo, hi, 0.5 * (lo + hi)]),
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    )
    return np.array(
        draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=rows, max_size=rows))
    )


class TestSortAndKernels:
    @SETTINGS
    @given(netlists(), st.integers(1, 5), st.data())
    def test_pin_order_is_lexsort(self, netlist, rows, data):
        n, pin_vertex, net_offsets, weights, _fixed = netlist
        coords = _coords(data.draw, rows, n)
        for vertex in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            coords[data.draw(st.integers(0, rows - 1)), vertex] = np.nan
        nets = NetPins(pin_vertex, net_offsets, weights)
        order = nets.sort(coords)
        pin_net = np.repeat(np.arange(len(net_offsets) - 1), np.diff(net_offsets))
        for k in range(rows):
            lex = np.lexsort((coords[k][pin_vertex], pin_net))
            assert np.array_equal(order.pins[k], pin_vertex[lex])
            assert np.array_equal(order.vertices[k], np.argsort(coords[k], kind="stable"))

    @SETTINGS
    @given(netlists(), st.integers(1, 4), st.data())
    def test_edges_hpwl_spreading_match_oracle(self, netlist, systems, data):
        n, pin_vertex, net_offsets, weights, fixed = netlist
        x = _coords(data.draw, systems, n)
        y = _coords(data.draw, systems, n)
        coords = np.concatenate([x, y])
        for got, want in zip(
            b2b_edges(pin_vertex, net_offsets, weights, coords),
            reference.b2b_edges(pin_vertex, net_offsets, weights, coords),
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        nets = NetPins(pin_vertex, net_offsets, weights)
        order = nets.sort(coords)
        assert np.array_equal(nets.hpwl(order), hpwl_arrays(pin_vertex, net_offsets, x, y))

        movable = ~fixed
        areas = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n)))
        vertices = order.vertices
        by_coord = (np.cumsum(movable) - 1)[vertices[movable[vertices]]]
        grid = DensityGrid(Floorplan(die_width=42.0, die_height=42.0, core_margin=2.0), 3, 4)
        got = spreading_targets(grid, x, y, areas, movable, 0.8,
                                by_coord=by_coord.reshape(len(vertices), -1))
        want = reference.spreading_targets(grid, x, y, areas, movable, 0.8)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(
            np.array_equal(g, w)
            for g, w in zip(spreading_targets(grid, x, y, areas, movable, 0.8), want)
        )

    @SETTINGS
    @given(netlists(), st.integers(1, 3), st.data())
    def test_quadratic_system_matches_oracle(self, netlist, systems, data):
        n, pin_vertex, net_offsets, weights, fixed = netlist
        m_ids = np.flatnonzero(~fixed)
        if not len(m_ids):
            return
        coords = _coords(data.draw, systems, n)
        u, v, w = b2b_edges(pin_vertex, net_offsets, weights, coords)
        anchors = coords + 0.25 if data.draw(st.booleans()) else None
        args = (u, v, w, coords, fixed, m_ids, anchors, np.full(n, 3e-3))
        for got, want in zip(b2b._quadratic_system(*args), reference._quadratic_system(*args)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


# ----------------------------------------------------------------------
# CSR assembly: duplicate groups and their association
# ----------------------------------------------------------------------
def _pairwise(values):
    """NumPy's pairwise sum (8 accumulators from eight values on)."""
    if len(values) < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    acc = list(values[:8])
    i = 8
    while i < len(values) - len(values) % 8:
        for j in range(8):
            acc[j] += values[i + j]
        i += 8
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for value in values[i:]:
        total += value
    return total


class TestAssembleCsr:
    @pytest.mark.parametrize("size", [2, 3, 8, 9, 32])
    def test_duplicate_groups_sum_as_reduceat(self, size):
        rng = np.random.default_rng(size)
        n = 6
        # Row 2's (2, 4) entry is duplicated `size` times, interleaved
        # with the other entries; every row keeps its diagonal.
        keys = [r * n + r for r in range(n)] + [2 * n + 4] * size + [1 * n + 3, 4 * n + 2]
        vals = rng.standard_normal(len(keys)) * 10.0 ** rng.integers(-6, 7, len(keys))
        perm = rng.permutation(len(keys))
        keys, vals = np.array(keys, dtype=np.int64)[perm], vals[perm]
        got = b2b._assemble_csr(keys, vals, n)
        want = reference._assemble_csr(keys, vals, n)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
        data, indices, indptr = got
        group = vals[keys == 2 * n + 4]
        entry = indptr[2] + np.flatnonzero(indices[indptr[2]:indptr[3]] == 4)[0]
        assert data[entry] == group[0] + _pairwise(list(group[1:]))

    def test_association_is_not_scipys(self):
        """``v0 + (v1 + v2)``: the claim that the sum runs left to
        right, as ``csr_sum_duplicates`` does, was false."""
        keys = np.array([0, 1, 1, 1, 3], dtype=np.int64)
        vals = np.array([5.0, 1.0, 1e16, -1e16, 7.0])
        data, indices, indptr = b2b._assemble_csr(keys, vals, 2)
        assert data.tolist() == [5.0, 1.0, 7.0]
        scipy = sp.coo_matrix((vals, (keys // 2, keys % 2)), shape=(2, 2)).tocsr()
        assert scipy.data.tolist() == [5.0, 0.0, 7.0]

    @pytest.mark.parametrize("bound", [7, 70_000, 15_040 * 15_040, 2**60])
    def test_sort_ints_is_the_stable_argsort(self, bound):
        """Packed keys where they fit one int64, radix passes beyond."""
        keys = np.random.default_rng(2).integers(0, min(bound, 2**62), 4000)
        order, ordered = sort_ints(keys, bound)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(ordered, keys[order])


# ----------------------------------------------------------------------
# Whole runs: GlobalPlacer == ReferencePlacer
# ----------------------------------------------------------------------
LIB = make_library()


def _placement(draw, systems):
    """A problem over a netless design whose flat arrays are replaced
    by a drawn netlist; ``systems`` > 0 stacks it over that many dies."""
    n, pin_vertex, net_offsets, weights, fixed = draw(netlists(max_vertices=36))
    design = Design("oracle", Floorplan(die_width=40.0, die_height=36.0, core_margin=2.0))
    for i in range(n):
        design.add_instance(f"c{i}", LIB["INV_X1"])
    coords = _coords(draw, 2, n, lo=2.0, hi=34.0)
    for inst, x, y in zip(design.instances, *coords.tolist()):
        inst.x, inst.y = x, y
    problem = PlacementProblem(design)
    problem.pin_vertex, problem.net_offsets = pin_vertex, net_offsets
    problem.net_weights, problem.fixed = weights, fixed
    if systems:
        dies = [(draw(st.sampled_from([30.0, 40.0, 52.0])), draw(st.sampled_from([24.0, 36.0])))
                for _ in range(systems)]
        problem.stack_dies(
            [Floorplan(die_width=w, die_height=h, core_margin=1.0) for w, h in dies],
            np.zeros((systems, 0)),
            np.zeros((systems, 0)),
        )
        if draw(st.booleans()):  # one system goes NaN
            k = draw(st.integers(0, systems - 1))
            problem.x[k, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))] = np.nan
    elif draw(st.booleans()):
        problem.x[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))] = np.nan
    regions = []
    if draw(st.booleans()):
        members = np.flatnonzero(~fixed)[: draw(st.integers(0, n))].tolist()
        regions.append(RegionConstraint("r", 6.0, 5.0, 20.0, 18.0, members))
    config = PlacerConfig(
        max_iterations=draw(st.integers(1, 7)),
        min_iterations=draw(st.integers(1, 3)),
        target_overflow=draw(st.sampled_from([0.05, 0.3, 0.9])),
        incremental=draw(st.booleans()),
        incremental_iterations=draw(st.integers(1, 5)),
        region_iterations=draw(st.sampled_from([None, 1, 3])),
        soft_regions=draw(st.booleans()),
        telemetry=None,
        seed=draw(st.integers(0, 3)),
    )
    return problem, regions, config


def _run(placer_class, problem, regions, config):
    """Coordinates, per-system outcome and solver counts of one run."""
    perf.enable()
    perf.reset()
    try:
        try:
            results = placer_class(problem, config, regions).run()
        except FloatingPointError as err:
            results = str(err)
        counts = tuple(perf.counter_value(name) for name in ("b2b.solves", "b2b.cg_iterations"))
    finally:
        perf.disable()
        perf.reset()
    if not isinstance(results, str):
        results = [
            (r.iterations, r.overflow, np.array(r.hpwl_trace), r.error)
            for r in (results if isinstance(results, list) else [results])
        ]
    return problem.x.tobytes(), problem.y.tobytes(), results, counts


def _same(got, want):
    assert got[0] == want[0] and got[1] == want[1]  # bitwise coordinates
    assert got[3] == want[3]  # solver counts
    if isinstance(want[2], str):
        assert got[2] == want[2]
        return
    assert len(got[2]) == len(want[2])
    for (gi, go, gt, ge), (wi, wo, wt, we) in zip(got[2], want[2]):
        assert (gi, ge) == (wi, we)
        assert np.array_equal(go, wo, equal_nan=True)
        assert np.array_equal(gt, wt, equal_nan=True)


class TestWholeRuns:
    @SETTINGS
    @given(st.sampled_from([0, 1, 3]), st.data())
    def test_global_placer_equals_oracle_round(self, systems, data):
        problem, regions, config = _placement(data.draw, systems)
        twin = copy.copy(problem)  # same design, own working arrays
        twin.x, twin.y = problem.x.copy(), problem.y.copy()
        _same(
            _run(GlobalPlacer, problem, regions, config),
            _run(reference.ReferencePlacer, twin, regions, config),
        )

    @pytest.mark.parametrize("incremental", [False, True])
    def test_stacked_dies_leave_at_their_own_rounds(self, incremental):
        """Six dies of one generated netlist retire at different rounds,
        so the carried sort is cut to the systems still active."""
        design = generate_design(DesignSpec("oracle", 260, clock_period=0.8, seed=5))
        problem = PlacementProblem(design)
        rng = np.random.default_rng(4)
        ports = problem.num_vertices - problem.num_movable_instances
        problem.stack_dies(
            [Floorplan(die_width=w, die_height=h, core_margin=1.0)
             for w, h in [(30, 30), (24, 40), (41, 23), (33, 33), (28, 36), (52, 19)]],
            rng.uniform(0, 30, (6, ports)),
            rng.uniform(0, 30, (6, ports)),
        )
        config = PlacerConfig(max_iterations=30, incremental_iterations=30, min_iterations=2,
                              target_overflow=0.3, incremental=incremental, telemetry=None)
        twin = copy.copy(problem)
        twin.x, twin.y = problem.x.copy(), problem.y.copy()
        got = _run(GlobalPlacer, problem, [], config)
        assert len({iterations for iterations, *_ in got[2]}) > 2
        _same(got, _run(reference.ReferencePlacer, twin, [], config))
