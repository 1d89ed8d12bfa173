"""Steiner tree construction tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.route.steiner import MAX_MST_PINS, STEINER_DISCOUNT, rsmt


def manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ),
    min_size=2,
    max_size=12,
)


class TestSmallNets:
    def test_single_point(self):
        tree = rsmt([(1.0, 1.0)])
        assert tree.length == 0.0
        assert tree.edges == []

    def test_two_pin_exact(self):
        tree = rsmt([(0, 0), (3, 4)])
        assert tree.length == pytest.approx(7.0)
        assert tree.edges == [(0, 1)]

    def test_three_pin_is_bbox_half_perimeter(self):
        tree = rsmt([(0, 0), (10, 0), (5, 5)])
        assert tree.length == pytest.approx(15.0)

    def test_three_pin_collinear(self):
        tree = rsmt([(0, 0), (5, 0), (10, 0)])
        assert tree.length == pytest.approx(10.0)


class TestMst:
    def test_four_pin_square(self):
        tree = rsmt([(0, 0), (0, 10), (10, 0), (10, 10)])
        # MST = 30, with Steiner discount.
        assert tree.length == pytest.approx(30 * STEINER_DISCOUNT)
        assert len(tree.edges) == 3

    def test_tree_is_spanning(self):
        rng = np.random.default_rng(0)
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 50, (20, 2))]
        tree = rsmt(pts)
        assert len(tree.edges) == len(pts) - 1
        # Connected: union-find over edges.
        parent = list(range(len(pts)))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in tree.edges:
            parent[find(a)] = find(b)
        assert len({find(v) for v in range(len(pts))}) == 1

    def test_star_fallback_for_huge_nets(self):
        pts = [(float(i), 0.0) for i in range(MAX_MST_PINS + 5)]
        tree = rsmt(pts)
        assert len(tree.edges) == len(pts) - 1
        assert all(e[0] == 0 for e in tree.edges)


class TestProperties:
    @given(points_strategy)
    @settings(max_examples=50, deadline=None)
    def test_length_lower_bounded_by_half_bbox(self, pts):
        """Any Steiner tree is at least the bbox half-perimeter / 2
        (actually >= HPWL/2 for the discounted MST too, since
        MST >= HPWL/2 always and discount is 0.9)."""
        tree = rsmt(pts)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        assert tree.length >= hpwl / 2 - 1e-6

    @given(points_strategy)
    @settings(max_examples=50, deadline=None)
    def test_length_upper_bounded_by_star(self, pts):
        tree = rsmt(pts)
        star = min(
            sum(manhattan(c, p) for p in pts) for c in pts
        )
        assert tree.length <= star + 1e-6

    @given(points_strategy)
    @settings(max_examples=30, deadline=None)
    def test_edges_reference_valid_points(self, pts):
        tree = rsmt(pts)
        for a, b in tree.edges:
            assert 0 <= a < len(pts)
            assert 0 <= b < len(pts)
            assert a != b


class TestStarFallback:
    def test_above_max_mst_pins_routes_as_star(self):
        rng = np.random.default_rng(7)
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 200, (MAX_MST_PINS + 3, 2))]
        tree = rsmt(pts)
        assert tree.edges == [(0, i) for i in range(1, len(pts))]
        assert tree.length == pytest.approx(
            sum(manhattan(pts[0], p) for p in pts[1:])
        )

    def test_at_max_mst_pins_still_uses_mst(self, monkeypatch):
        import repro.route.steiner as steiner

        monkeypatch.setattr(steiner, "MAX_MST_PINS", 8)
        rng = np.random.default_rng(8)
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 50, (8, 2))]
        tree = steiner.rsmt(pts)
        # 8 pins is not above the cap: a spanning MST, not a star.
        assert len(tree.edges) == 7
        assert tree.edges != [(0, i) for i in range(1, 8)]
