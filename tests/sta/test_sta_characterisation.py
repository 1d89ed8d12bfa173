"""STA characterisation: the properties the PPA comparisons rest on."""

import numpy as np
import pytest

from repro.designs import DesignSpec, generate_design
from repro.place import GlobalPlacer, PlacementProblem
from repro.sta import (
    PlacementWireModel,
    RoutedWireModel,
    TimingAnalyzer,
    TimingGraph,
    find_path_ends,
)


@pytest.fixture(scope="module")
def placed():
    design = generate_design(
        DesignSpec("stc", 600, clock_period=0.8, logic_depth=10, seed=211)
    )
    GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
    return design


class TestPlacementTimingCoupling:
    def test_worse_placement_worse_timing(self, placed):
        """Scrambling the placement degrades WNS — timing genuinely
        depends on placement in this model (the paper's premise)."""
        design = placed
        graph = TimingGraph(design.arrays())
        model = PlacementWireModel()
        good = TimingAnalyzer(graph, model).update().wns
        saved = [(i.x, i.y) for i in design.instances]
        rng = np.random.default_rng(0)
        fp = design.floorplan
        for inst in design.instances:
            if not inst.fixed:
                inst.x = rng.uniform(fp.core_llx, fp.core_urx)
                inst.y = rng.uniform(fp.core_lly, fp.core_ury)
        bad = TimingAnalyzer(graph, model).update().wns
        for inst, (x, y) in zip(design.instances, saved):
            inst.x, inst.y = x, y
        assert bad < good

    def test_critical_path_wl_dominates_slack_change(self, placed):
        """Pulling the worst path's cells together improves its slack."""
        design = placed
        graph = TimingGraph(design.arrays())
        model = PlacementWireModel()
        analyzer = TimingAnalyzer(graph, model)
        analyzer.update()
        worst = find_path_ends(analyzer, group_count=1)[0]
        owners = graph.node_owner[worst.nodes]
        cells = [design.instances[i] for i in owners[owners >= 0].tolist()]
        saved = [(c.x, c.y) for c in cells]
        cx = np.mean([c.x for c in cells])
        cy = np.mean([c.y for c in cells])
        for cell in cells:
            if not cell.fixed:
                cell.x, cell.y = cx, cy
        pulled = TimingAnalyzer(graph, model).update()
        slack_after = pulled.endpoint_slacks[worst.endpoint]
        for cell, (x, y) in zip(cells, saved):
            cell.x, cell.y = x, y
        assert slack_after > worst.slack

    def test_routed_model_at_least_as_pessimistic(self, placed):
        """Routed wirelengths >= HPWL per net, so routed WNS <= placed
        WNS (+ small numerical tolerance)."""
        from repro.route import GlobalRouter

        design = placed
        routing = GlobalRouter(design.arrays(), design.floorplan).run()
        graph = TimingGraph(design.arrays())
        placed_wns = TimingAnalyzer(
            graph, PlacementWireModel()
        ).update().wns
        routed_wns = TimingAnalyzer(
            graph, RoutedWireModel(routing.net_lengths)
        ).update().wns
        assert routed_wns <= placed_wns + 0.005

    def test_reanalysis_after_move_consistent(self, placed):
        """The analyzer has no stale caches: moving a cell and
        re-running update() changes loads coherently."""
        design = placed
        graph = TimingGraph(design.arrays())
        model = PlacementWireModel()
        analyzer = TimingAnalyzer(graph, model)
        before = analyzer.update().wns
        target = next(i for i in design.instances if not i.fixed)
        old = target.x
        target.x = design.floorplan.core_urx
        moved = analyzer.update().wns
        target.x = old
        restored = analyzer.update().wns
        assert restored == pytest.approx(before, abs=1e-12)
        del moved
