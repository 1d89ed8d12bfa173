"""Global placer integration tests."""

import numpy as np
import pytest

from repro.place import (
    GlobalPlacer,
    PlacementProblem,
    PlacerConfig,
    RegionConstraint,
    hpwl,
)


@pytest.fixture
def placed_problem(small_design_fresh):
    problem = PlacementProblem(small_design_fresh)
    result = GlobalPlacer(problem, PlacerConfig(seed=3)).run()
    return small_design_fresh, problem, result


class TestPlacementProblem:
    def test_vertex_layout(self, small_design):
        problem = PlacementProblem(small_design)
        assert problem.num_vertices == small_design.num_instances + len(
            small_design.ports
        )
        assert problem.num_movable_instances == small_design.num_instances

    def test_ports_fixed(self, small_design):
        problem = PlacementProblem(small_design)
        for name in small_design.ports:
            assert problem.fixed[problem.port_vertex(name)]

    def test_fixed_instances_respected(self, medium_design):
        problem = PlacementProblem(medium_design)
        for inst in medium_design.macro_instances():
            assert problem.fixed[inst.index]

    def test_clip_to_core(self, small_design_fresh):
        problem = PlacementProblem(small_design_fresh)
        problem.x[problem.movable] = -100.0
        problem.clip_to_core()
        fp = small_design_fresh.floorplan
        assert problem.x[problem.movable].min() >= fp.core_llx

    def test_commit_writes_back(self, small_design_fresh):
        problem = PlacementProblem(small_design_fresh)
        problem.x[0] = 12.5
        problem.y[0] = 13.5
        problem.commit()
        inst = small_design_fresh.instances[0]
        assert (inst.x, inst.y) == (12.5, 13.5)


class TestGlobalPlacement:
    def test_beats_random_placement(self, placed_problem):
        design, problem, result = placed_problem
        rng = np.random.default_rng(0)
        fp = design.floorplan
        random_x = problem.x.copy()
        random_y = problem.y.copy()
        m = problem.movable
        random_x[m] = rng.uniform(fp.core_llx, fp.core_urx, m.sum())
        random_y[m] = rng.uniform(fp.core_lly, fp.core_ury, m.sum())
        saved = problem.x.copy(), problem.y.copy()
        problem.x, problem.y = random_x, random_y
        random_hpwl = problem.hpwl()
        problem.x, problem.y = saved
        assert result.hpwl < 0.75 * random_hpwl

    def test_overflow_met(self, placed_problem):
        _d, _p, result = placed_problem
        assert result.overflow < 0.15

    def test_cells_inside_core(self, placed_problem):
        design, problem, _result = placed_problem
        fp = design.floorplan
        m = problem.movable
        assert problem.x[m].min() >= fp.core_llx - 1e-9
        assert problem.x[m].max() <= fp.core_urx + 1e-9

    def test_deterministic(self, small_design_fresh):
        import copy

        from repro.designs import DesignSpec, generate_design

        def run_once():
            design = generate_design(
                DesignSpec("d", 200, clock_period=0.7, seed=9)
            )
            problem = PlacementProblem(design)
            GlobalPlacer(problem, PlacerConfig(max_iterations=8, seed=1)).run()
            return problem.x.copy()

        assert np.allclose(run_once(), run_once())

    def test_trace_recorded(self, placed_problem):
        _d, _p, result = placed_problem
        assert len(result.hpwl_trace) == result.iterations + 1

    def test_runtime_positive(self, placed_problem):
        _d, _p, result = placed_problem
        assert result.runtime > 0


class TestNonFiniteSolve:
    """A solve that goes NaN never reaches the design's coordinates."""

    def _poison_spreading(self, monkeypatch):
        from repro.place import placer

        real = placer.spreading_targets

        def poisoned(grid, x, y, areas, movable, strength=0.8, **kwargs):
            target_x, target_y = real(grid, x, y, areas, movable, strength, **kwargs)
            target_x[:, np.nonzero(movable)[0][0]] = np.nan
            return target_x, target_y

        monkeypatch.setattr(placer, "spreading_targets", poisoned)

    def test_ordinary_run_raises_and_commits_nothing(
        self, small_design_fresh, monkeypatch
    ):
        design = small_design_fresh
        before = [(inst.x, inst.y) for inst in design.instances]
        self._poison_spreading(monkeypatch)
        with pytest.raises(FloatingPointError, match="non-finite B2B solve"):
            GlobalPlacer(PlacementProblem(design), PlacerConfig(seed=3)).run()
        assert [(inst.x, inst.y) for inst in design.instances] == before

    def test_stacked_run_reports_every_failed_system(
        self, small_design_fresh, monkeypatch
    ):
        """Once every system has left the lockstep, the round that
        follows measures nothing instead of reshaping an empty set."""
        problem = PlacementProblem(small_design_fresh)
        n_inst = problem.num_movable_instances
        ports = [np.tile(axis[n_inst:], (2, 1)) for axis in (problem.x, problem.y)]
        problem.stack_dies([small_design_fresh.floorplan] * 2, *ports)
        self._poison_spreading(monkeypatch)
        results = GlobalPlacer(problem, PlacerConfig(seed=3)).run()
        assert [r.error for r in results] == ["non-finite B2B solve"] * 2


class TestIncrementalPlacement:
    def test_respects_seed_structure(self, small_design_fresh):
        """An incremental run seeded with a converged placement stays
        strongly correlated with it (the seed is not erased)."""
        design = small_design_fresh
        problem = PlacementProblem(design)
        GlobalPlacer(problem, PlacerConfig(seed=3)).run()
        seed_x = problem.x.copy()
        seed_y = problem.y.copy()
        rng = np.random.default_rng(1)
        m = problem.movable
        problem.x[m] += rng.normal(0, 1.0, int(m.sum()))
        problem.y[m] += rng.normal(0, 1.0, int(m.sum()))
        GlobalPlacer(
            problem, PlacerConfig(incremental=True)
        ).run()
        corr_x = np.corrcoef(seed_x[m], problem.x[m])[0, 1]
        corr_y = np.corrcoef(seed_y[m], problem.y[m])[0, 1]
        assert corr_x > 0.7
        assert corr_y > 0.7

    def test_incremental_spreads(self, small_design_fresh):
        design = small_design_fresh
        fp = design.floorplan
        problem = PlacementProblem(design)
        m = problem.movable
        problem.x[m] = 0.5 * (fp.core_llx + fp.core_urx)
        problem.y[m] = 0.5 * (fp.core_lly + fp.core_ury)
        config = PlacerConfig(incremental=True)
        result = GlobalPlacer(problem, config).run()
        assert result.overflow < 0.15


class TestRegions:
    def test_region_clamp(self):
        region = RegionConstraint("r", 10, 10, 20, 20, vertex_ids=[0, 1])
        x = np.array([0.0, 50.0, 99.0])
        y = np.array([0.0, 50.0, 99.0])
        region.clamp(x, y)
        assert x[0] == 10.0 and x[1] == 20.0
        assert x[2] == 99.0  # not in region

    def test_region_geometry(self):
        region = RegionConstraint("r", 10, 20, 30, 60)
        assert region.center == (20, 40)
        assert region.width == 20
        assert region.height == 40
        assert region.contains(15, 30)
        assert not region.contains(5, 30)

    def test_placement_with_regions_keeps_members_close(
        self, small_design_fresh
    ):
        design = small_design_fresh
        fp = design.floorplan
        problem = PlacementProblem(design)
        members = list(range(0, 40))
        region = RegionConstraint(
            "r",
            fp.core_llx,
            fp.core_lly,
            fp.core_llx + 0.3 * fp.core_width,
            fp.core_lly + 0.3 * fp.core_height,
            vertex_ids=members,
        )
        config = PlacerConfig(max_iterations=10, seed=0)
        GlobalPlacer(problem, config, regions=[region]).run()
        inside = [
            region.contains(problem.x[v], problem.y[v]) for v in members
        ]
        assert np.mean(inside) > 0.95

