import numpy as np

from benchmarks.spine import checks


def _placed_design():
    from repro.core.flow import default_flow
    from repro.designs.generator import DesignSpec, generate_design

    design = generate_design(DesignSpec("t", 400, seed=5))
    result = default_flow(design)
    return design, result


def test_independent_hpwl_agrees_with_the_program():
    design, result = _placed_design()
    assert checks.check_hpwl(design, result.metrics.hpwl) == []
    assert checks.check_hpwl(design, result.metrics.hpwl * 1.001) != []
    assert checks.check_placement(design) == []
    assert checks.check_metrics_finite(result.metrics) == []


def test_placement_check_sees_escapes_and_nans():
    design, _ = _placed_design()
    movable = [i for i in design.instances if not i.fixed]
    movable[0].x = design.floorplan.core_urx + 5.0
    assert "outside the core" in checks.check_placement(design)[0]
    movable[0].x = float("nan")
    assert "non-finite" in checks.check_placement(design)[0]


def test_partition_check():
    assert checks.check_partition(np.array([0, 1, 1, 2]), 4) == []
    assert checks.check_partition(np.array([0, 1, 1]), 4) != []
    assert checks.check_partition(np.array([0, -1, 1, 2]), 4) != []
    assert checks.check_partition(np.array([0, 3, 3, 0]), 4) != []


def test_shape_check_and_digest():
    from repro.core.shapes import ShapeCandidate, default_candidate_grid, uniform_shape

    grid = default_candidate_grid()
    assert checks.check_shapes({0: grid[3], 1: uniform_shape()}, grid) == []
    assert checks.check_shapes({0: ShapeCandidate(3.0, 0.5)}, grid) != []

    _, result = _placed_design()
    one = checks.qor_digest(result.metrics, {0: grid[0]})
    assert one == checks.qor_digest(result.metrics, {0: grid[0]})
    assert one != checks.qor_digest(result.metrics, {0: grid[1]})
    assert checks.same_metrics(result.metrics, result.metrics) == []
