"""Generator internals: module budgets, chains, port handling."""

import random

import pytest

from repro.designs import DesignSpec, generate_design
from repro.designs.generator import _build_modules
from repro.sta import TimingGraph
from tests.sta.reference import CELL, GraphView


class TestBuildModules:
    def spec(self, **kw):
        base = dict(name="g", num_instances=1000, hierarchy_depth=3,
                    hierarchy_branching=4, seed=3)
        base.update(kw)
        return DesignSpec(**base)

    def test_budgets_sum_to_target(self):
        spec = self.spec()
        modules = _build_modules(spec, random.Random(spec.seed))
        assert sum(m.budget for m in modules) == 1000

    def test_leaf_count_bounded_by_branching(self):
        spec = self.spec()
        modules = _build_modules(spec, random.Random(spec.seed))
        assert len(modules) <= spec.hierarchy_branching**spec.hierarchy_depth

    def test_small_budget_single_module(self):
        spec = self.spec(num_instances=15)
        modules = _build_modules(spec, random.Random(spec.seed))
        assert len(modules) == 1

    def test_paths_unique(self):
        spec = self.spec()
        modules = _build_modules(spec, random.Random(spec.seed))
        paths = [m.path for m in modules]
        assert len(paths) == len(set(paths))


class TestCriticalChains:
    def test_chain_cells_span_modules(self):
        """Chains draw from multiple modules when leaves are smaller
        than the logic depth (the ariane-style configuration)."""
        design = generate_design(
            DesignSpec(
                "ch",
                800,
                clock_period=1.0,
                logic_depth=30,
                hierarchy_depth=3,
                hierarchy_branching=4,
                critical_chains=2,
                seed=13,
            )
        )
        graph = TimingGraph(design.arrays())
        view = GraphView(graph, design)
        # Longest chain close to logic_depth despite small leaves.
        depth = {}
        best = 0
        for u in graph.topo_order:
            du = depth.get(u, 0)
            for v, kind, _p in view.arcs[u]:
                step = 1 if kind == CELL else 0
                if du + step > depth.get(v, 0):
                    depth[v] = du + step
                    best = max(best, depth[v])
        assert best >= 20

    def test_zero_chains_allowed(self):
        design = generate_design(
            DesignSpec("nc", 300, clock_period=1.0, critical_chains=0, seed=3)
        )
        assert design.validate() == []


class TestPortEdgeCases:
    def test_minimum_ports(self):
        design = generate_design(
            DesignSpec("mp", 100, num_ports=4, clock_period=1.0, seed=5)
        )
        # 4 IO + clk
        assert len(design.ports) == 5
        assert design.validate() == []

    def test_asap7_and_ng45_same_topology_seed(self):
        """The two enablements share the connectivity recipe: same
        instance counts for the same spec (different masters)."""
        a = generate_design(
            DesignSpec("e", 300, clock_period=1.0, seed=9, enablement="nangate45")
        )
        b = generate_design(
            DesignSpec("e", 300, clock_period=0.3, seed=9, enablement="asap7")
        )
        assert a.num_instances == b.num_instances
        assert len(a.ports) == len(b.ports)
