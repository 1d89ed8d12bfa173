"""Two-tier 3D placement extension tests."""

import numpy as np
import pytest

from benchmarks.ext.three_d import (
    ThreeDResult,
    assign_tiers,
    three_d_placement_flow,
)
from repro.designs import DesignSpec, generate_design


class TestTierAssignment:
    def test_balances_area(self):
        areas = np.array([10.0, 10.0, 10.0, 10.0])
        tier = assign_tiers(np.zeros(4), areas, {})
        assert sorted(np.bincount(tier, minlength=2)) == [2, 2]

    def test_respects_imbalance_bound(self):
        areas = np.array([50.0, 10.0, 10.0, 10.0, 10.0, 10.0])
        tier = assign_tiers(np.zeros(6), areas, {}, max_imbalance=0.1)
        tier_areas = np.zeros(2)
        for c, a in enumerate(areas):
            tier_areas[tier[c]] += a
        assert abs(tier_areas[0] - tier_areas[1]) / areas.sum() <= 0.11

    def test_keeps_connected_pairs_together(self):
        """Strongly connected cluster pairs end on the same tier."""
        areas = np.ones(4)
        crossing = {(0, 1): 100.0, (2, 3): 100.0, (1, 2): 0.01}
        tier = assign_tiers(np.zeros(4), areas, crossing)
        assert tier[0] == tier[1]
        assert tier[2] == tier[3]

    def test_two_tiers_only(self):
        areas = np.ones(10)
        tier = assign_tiers(np.zeros(10), areas, {})
        assert set(tier.tolist()) <= {0, 1}


class TestThreeDFlow:
    @pytest.fixture(scope="class")
    def result(self):
        design = generate_design(
            DesignSpec(
                "td",
                800,
                clock_period=0.8,
                logic_depth=10,
                hierarchy_depth=2,
                seed=53,
            )
        )
        return three_d_placement_flow(design, seed=0)

    def test_footprint_halved(self, result):
        assert result.footprint_3d == pytest.approx(
            result.footprint_2d / 2, rel=0.1
        )

    def test_wirelength_reduced(self, result):
        """The classic 3D benefit: xy wirelength shrinks toward
        1/sqrt(2); with via costs it must still clearly beat 2D."""
        assert result.wirelength_ratio < 0.95

    def test_vias_counted(self, result):
        assert result.via_count > 0

    def test_tier_areas_balanced(self, result):
        imbalance = abs(result.tier_areas[0] - result.tier_areas[1])
        assert imbalance / result.tier_areas.sum() < 0.15

    def test_record_fields(self, result):
        assert isinstance(result, ThreeDResult)
        assert result.num_clusters > 1
        assert len(result.tier_of_cluster) == result.num_clusters
