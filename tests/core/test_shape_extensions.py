"""L-shaped cluster shape extension tests (paper's future work)."""

import pytest

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from benchmarks.ext.shape_extensions import (
    CORNERS,
    LShapeCandidate,
    LShapeVPRFramework,
    default_lshape_candidates,
)
from repro.core.vpr import VPRConfig
from repro.db.database import DesignDatabase


class TestLShapeCandidate:
    def test_bounding_dimensions_account_for_notch(self):
        candidate = LShapeCandidate(
            aspect_ratio=1.0, utilization=0.75, notch_fraction=0.5
        )
        width, height = candidate.bounding_dimensions(75.0)
        usable = width * height * (1 - 0.25)
        assert 75.0 / usable == pytest.approx(0.75)
        assert height / width == pytest.approx(1.0)

    @pytest.mark.parametrize("corner", CORNERS)
    def test_notch_rect_inside_die(self, corner):
        candidate = LShapeCandidate(1.0, 0.8, 0.5, corner)
        width, height = 10.0, 10.0
        margin = 1.0
        llx, lly, urx, ury = candidate.notch_rect(width, height, margin)
        assert margin - 1e-9 <= llx < urx <= margin + width + 1e-9
        assert margin - 1e-9 <= lly < ury <= margin + height + 1e-9
        assert (urx - llx) == pytest.approx(5.0)

    def test_unknown_corner_rejected(self):
        candidate = LShapeCandidate(1.0, 0.8, 0.5, "xx")
        with pytest.raises(ValueError):
            candidate.notch_rect(10, 10, 0)

    def test_default_grid(self):
        grid = default_lshape_candidates()
        assert len(grid) == 3 * 2 * 4
        assert len({str(c) for c in grid}) == len(grid)


class TestLShapeEvaluation:
    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.designs import DesignSpec, generate_design

        design = generate_design(
            DesignSpec("lsh", 500, clock_period=0.8, logic_depth=8, seed=37)
        )
        db = DesignDatabase(design)
        result = ppa_aware_clustering(
            db, PPAClusteringConfig(target_cluster_size=150)
        )
        members = max(result.members(), key=len)
        return design, members

    def test_evaluate_lshape_costs(self, cluster):
        design, members = cluster
        framework = LShapeVPRFramework(VPRConfig(placer_iterations=3))
        from repro.core.vpr import extract_subnetlist

        sub = extract_subnetlist(design, members)
        area = sum(design.instances[i].area for i in members)
        evaluation = framework.evaluate_lshape(
            sub, area, LShapeCandidate(1.0, 0.85, 0.5, "ne")
        )
        assert evaluation.hpwl_cost > 0
        assert evaluation.congestion_cost >= 0
        # The blockage is cleaned up: sub-netlist reusable.
        assert not sub.has_instance("__lshape_blockage__")
        assert sub.validate() == []

    def test_sweep_with_lshapes(self, cluster):
        design, members = cluster
        framework = LShapeVPRFramework(VPRConfig(placer_iterations=3))
        record = framework.sweep_with_lshapes(
            design,
            members,
            lshape_candidates=[
                LShapeCandidate(1.0, 0.85, 0.5, "ne"),
                LShapeCandidate(1.0, 0.85, 0.5, "sw"),
            ],
        )
        assert record["num_rect"] == 20
        assert record["num_lshape"] == 2
        assert record["best_rect_cost"] > 0
        assert record["best_lshape_cost"] > 0
        assert isinstance(record["lshape_wins"], bool)

    def test_invalid_candidate_never_wins_either_arm(self, cluster, monkeypatch):
        """A NaN-cost evaluation in first position wins a bare min();
        both picks go through the validity-aware selection."""
        import math

        from repro.core.vpr import CandidateEvaluation

        design, members = cluster
        framework = LShapeVPRFramework(VPRConfig(placer_iterations=3))
        lshapes = [
            LShapeCandidate(1.0, 0.85, 0.5, "ne"),
            LShapeCandidate(1.0, 0.85, 0.5, "sw"),
        ]
        clean = framework.sweep_with_lshapes(design, members, lshapes)

        def poisoned(evaluation):
            nan = float("nan")
            return CandidateEvaluation(
                evaluation.candidate, nan, nan, error="FloatingPointError()"
            )

        rect = LShapeVPRFramework.evaluate_candidates
        lshape = LShapeVPRFramework.evaluate_lshape

        def rect_first_invalid(self, *args, **kwargs):
            evaluations = rect(self, *args, **kwargs)
            return [poisoned(evaluations[0])] + evaluations[1:]

        def lshape_first_invalid(self, sub, cell_area, candidate):
            evaluation = lshape(self, sub, cell_area, candidate)
            return poisoned(evaluation) if candidate is lshapes[0] else evaluation

        monkeypatch.setattr(
            LShapeVPRFramework, "evaluate_candidates", rect_first_invalid
        )
        monkeypatch.setattr(
            LShapeVPRFramework, "evaluate_lshape", lshape_first_invalid
        )
        record = framework.sweep_with_lshapes(design, members, lshapes)
        assert math.isfinite(record["best_rect_cost"])
        assert record["best_rect"] != framework.config.candidates[0]
        assert record["best_rect_cost"] >= clean["best_rect_cost"]
        assert math.isfinite(record["best_lshape_cost"])
        assert record["best_lshape"] is lshapes[1]
