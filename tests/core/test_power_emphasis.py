"""Power-emphasis flow option tests."""

import pytest

from repro.core import ClusteredPlacementFlow, FlowConfig
from repro.core.flow import _power_multipliers


class TestPowerMultipliers:
    def test_weights_at_least_one(self, small_design):
        multipliers = _power_multipliers(small_design, emphasis=2.0)
        assert multipliers.shape == (small_design.num_nets,)
        assert (multipliers > 1.0).any()
        assert multipliers.min() >= 1.0

    def test_high_energy_nets_weighted_more(self, small_design):
        from repro.sta import FanoutWireModel, propagate_activity, timing_graph_for
        from tests.sta.reference import net_load

        multipliers = _power_multipliers(small_design, emphasis=2.0)
        graph = timing_graph_for(small_design.arrays())
        activity = propagate_activity(graph)
        model = FanoutWireModel()
        energies = {
            n.index: activity[n.index] * net_load(model, small_design, n)
            for n in small_design.nets
            if not n.is_clock and n.degree >= 2
        }
        hottest = max(energies, key=energies.get)
        coldest = min(energies, key=energies.get)
        assert multipliers[hottest] > multipliers[coldest]

    def test_cap_applied(self, small_design):
        multipliers = _power_multipliers(small_design, emphasis=1.0)
        assert multipliers.max() <= 1.0 + 1.0 * 4.0 + 1e-9

    def test_clock_nets_excluded(self, small_design):
        multipliers = _power_multipliers(small_design, emphasis=1.0)
        clock_indices = [n.index for n in small_design.nets if n.is_clock]
        assert clock_indices and (multipliers[clock_indices] == 1.0).all()


class TestPowerEmphasisFlow:
    def test_flow_runs_with_emphasis(self, small_design_fresh):
        config = FlowConfig(
            tool="openroad", power_emphasis=2.0, run_routing=False
        )
        result = ClusteredPlacementFlow(config).run(small_design_fresh)
        assert result.metrics.hpwl > 0

    def test_weights_restored_after_flow(self, small_design_fresh):
        before = [n.weight for n in small_design_fresh.nets]
        ClusteredPlacementFlow(
            FlowConfig(power_emphasis=2.0, run_routing=False)
        ).run(small_design_fresh)
        after = [n.weight for n in small_design_fresh.nets]
        assert before == after
