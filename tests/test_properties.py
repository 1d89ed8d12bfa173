"""Cross-module property-based tests (hypothesis).

Invariants that must hold for any generated design:

* clustering assignments are always complete partitions,
* contraction preserves cut weight and total area,
* HPWL is invariant under translation and monotone under net growth,
* STA slacks shift linearly with the clock period,
* clustered-netlist HPWL lower-bounds nothing but stays finite, and
  seeding + incremental placement keeps all cells in the core.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fc import FirstChoiceConfig, first_choice_clustering
from repro.core.clustered_netlist import build_clustered_netlist
from repro.core.rent import weighted_average_rent
from repro.designs import DesignSpec, generate_design
from repro.netlist.hypergraph import Hypergraph
from repro.place.hpwl import hpwl
from repro.sta import FanoutWireModel, TimingAnalyzer, TimingGraph

_DESIGN_CACHE = {}


def design_for(seed: int, n: int = 250):
    key = (seed, n)
    if key not in _DESIGN_CACHE:
        _DESIGN_CACHE[key] = generate_design(
            DesignSpec(
                f"prop{seed}",
                n,
                clock_period=0.7,
                logic_depth=8,
                hierarchy_depth=2,
                seed=seed,
            )
        )
    return _DESIGN_CACHE[key]


class TestClusteringProperties:
    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=4, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_fc_is_complete_partition(self, seed, target):
        design = design_for(seed % 4)
        hg = Hypergraph.from_netlist(design.arrays())
        clusters = first_choice_clustering(
            hg, FirstChoiceConfig(target_clusters=target, seed=seed)
        )
        assert len(clusters) == hg.num_vertices
        assert clusters.min() >= 0
        # Dense ids.
        assert set(np.unique(clusters)) == set(range(clusters.max() + 1))

    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_rent_bounded(self, seed):
        """R_avg of any real clustering stays in a sane band: each
        cluster exponent is ln(E/pins)/ln(size)+1 with E <= pins, so
        R_c <= 1 and bounded below by full containment."""
        design = design_for(seed % 4)
        hg = Hypergraph.from_netlist(design.arrays())
        clusters = first_choice_clustering(
            hg, FirstChoiceConfig(target_clusters=12, seed=seed)
        )
        rent = weighted_average_rent(hg, clusters)
        assert -2.0 < rent <= 1.0 + 1e-9

    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_contract_cut_identity(self, seed):
        design = design_for(seed % 4)
        hg = Hypergraph.from_netlist(design.arrays())
        clusters = first_choice_clustering(
            hg, FirstChoiceConfig(target_clusters=10, seed=seed)
        )
        coarse, _members = hg.contract(clusters)
        assert coarse.edge_weights.sum() == pytest.approx(hg.cut_size(clusters))
        assert coarse.vertex_areas.sum() == pytest.approx(hg.vertex_areas.sum())


class TestHpwlProperties:
    @given(st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_translation_of_everything_invariant(self, dx, dy):
        design = design_for(1)
        base = hpwl(design.arrays())
        for inst in design.instances:
            inst.x += dx
            inst.y += dy
        for port in design.ports.values():
            port.x += dx
            port.y += dy
        shifted = hpwl(design.arrays())
        for inst in design.instances:
            inst.x -= dx
            inst.y -= dy
        for port in design.ports.values():
            port.x -= dx
            port.y -= dy
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-6)

    @given(st.floats(min_value=1.1, max_value=5.0))
    @settings(max_examples=10, deadline=None)
    def test_uniform_scaling_scales_hpwl(self, factor):
        design = design_for(2)
        base = hpwl(design.arrays())
        for inst in design.instances:
            inst.x *= factor
            inst.y *= factor
        for port in design.ports.values():
            port.x *= factor
            port.y *= factor
        scaled = hpwl(design.arrays())
        inv = 1.0 / factor
        for inst in design.instances:
            inst.x *= inv
            inst.y *= inv
        for port in design.ports.values():
            port.x *= inv
            port.y *= inv
        assert scaled == pytest.approx(base * factor, rel=1e-6)


class TestStaProperties:
    @given(st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=10, deadline=None)
    def test_slack_shifts_linearly_with_period(self, period):
        design = design_for(3)
        graph = TimingGraph(design.arrays())
        model = FanoutWireModel()
        original = design.clock_period
        design.clock_period = period
        report_a = TimingAnalyzer(graph, model).update()
        design.clock_period = period + 1.0
        report_b = TimingAnalyzer(graph, model).update()
        design.clock_period = original
        assert report_b.wns == pytest.approx(report_a.wns + 1.0, abs=1e-9)

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=6, deadline=None)
    def test_tns_at_most_wns(self, seed):
        design = design_for(seed % 4)
        graph = TimingGraph(design.arrays())
        report = TimingAnalyzer(graph, FanoutWireModel()).update()
        if report.tns < 0:
            assert report.tns <= report.wns


class TestClusteredNetlistProperties:
    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=8, deadline=None)
    def test_cluster_net_degrees_bounded(self, seed):
        design = design_for(seed % 4)
        hg = Hypergraph.from_netlist(design.arrays())
        clusters = first_choice_clustering(
            hg, FirstChoiceConfig(target_clusters=15, seed=seed)
        )
        cn = build_clustered_netlist(design, clusters)
        k = clusters.max() + 1
        for net in cn.design.nets:
            assert net.degree <= k + len(cn.design.ports)
            assert net.degree >= 2
