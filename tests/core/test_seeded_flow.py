"""Seeded placement and end-to-end flow tests."""

import numpy as np
import pytest

from repro.core import (
    ClusteredPlacementFlow,
    FlowConfig,
    PPAMetrics,
    blob_placement_flow,
    default_flow,
)
from repro.core.clustered_netlist import build_clustered_netlist
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.seeded import (
    IO_NET_WEIGHT,
    SeededPlacementConfig,
    seeded_placement,
)
from repro.core.vpr import UniformShapeSelector, VPRConfig
from repro.db.database import DesignDatabase
from repro.place.hpwl import hpwl


@pytest.fixture
def clustered_small(small_design_fresh):
    db = DesignDatabase(small_design_fresh)
    result = ppa_aware_clustering(db)
    cn = build_clustered_netlist(
        small_design_fresh, result.cluster_of, io_net_weight=IO_NET_WEIGHT
    )
    return small_design_fresh, result, cn


class TestSeededPlacement:
    def test_openroad_mode(self, clustered_small):
        design, _result, cn = clustered_small
        result = seeded_placement(cn, SeededPlacementConfig(tool="openroad"))
        assert result.hpwl > 0
        assert result.hpwl == pytest.approx(hpwl(design), rel=0.01)
        assert "cluster_place" in result.runtimes
        assert "incremental_place" in result.runtimes
        fp = design.floorplan
        for inst in design.instances:
            if not inst.fixed:
                assert fp.core_llx - 1e-6 <= inst.x <= fp.core_urx + 1e-6

    def test_innovus_mode_with_regions(self, clustered_small):
        design, result, cn = clustered_small
        big = [c for c, m in enumerate(result.members()) if len(m) > 30]
        out = seeded_placement(
            cn, SeededPlacementConfig(tool="innovus"), vpr_cluster_ids=big
        )
        assert out.hpwl > 0

    def test_unknown_tool_rejected(self, clustered_small):
        _d, _r, cn = clustered_small
        with pytest.raises(ValueError):
            seeded_placement(cn, SeededPlacementConfig(tool="magic"))

    def test_density_resolved(self, clustered_small):
        _d, _r, cn = clustered_small
        out = seeded_placement(cn)
        assert out.incremental_result.overflow < 0.15


class TestFlows:
    def test_default_flow_post_place_only(self, small_design_fresh):
        result = default_flow(small_design_fresh, run_routing=False)
        assert result.metrics.hpwl > 0
        assert result.metrics.rwl is None
        assert result.num_clusters == 0

    def test_default_flow_full(self, small_design_fresh):
        result = default_flow(small_design_fresh)
        m = result.metrics
        assert m.rwl > m.hpwl * 0.8
        assert m.wns is not None
        assert m.tns <= 0
        assert m.power > 0

    def test_clustered_flow_openroad(self, small_design_fresh):
        flow = ClusteredPlacementFlow(
            FlowConfig(tool="openroad", vpr_config=VPRConfig(placer_iterations=3))
        )
        result = flow.run(small_design_fresh)
        m = result.metrics
        assert result.num_clusters > 1
        assert m.hpwl > 0
        assert m.power > 0
        assert result.selection is not None
        assert "incremental_place" in m.runtimes

    def test_clustered_flow_innovus(self, small_design_fresh):
        flow = ClusteredPlacementFlow(
            FlowConfig(tool="innovus", run_routing=False)
        )
        result = flow.run(small_design_fresh)
        assert result.metrics.hpwl > 0

    def test_flow_with_uniform_selector(self, small_design_fresh):
        flow = ClusteredPlacementFlow(
            FlowConfig(
                tool="openroad",
                shape_selector=UniformShapeSelector(),
                run_routing=False,
            )
        )
        result = flow.run(small_design_fresh)
        assert result.selection.sweeps == []

    def test_selector_config_is_the_runs_config(
        self, small_design_fresh, monkeypatch
    ):
        """A selector that sweeps with its own framework config: the
        Innovus regions cover the clusters it shaped and the resume
        fingerprint records its bounds, not ``FlowConfig.vpr_config``'s."""
        from repro.core import flow as flow_module
        from repro.core.shapes import uniform_shape
        from repro.core.vpr import MLShapeSelector

        selector = MLShapeSelector(
            lambda sub, candidates: np.arange(len(candidates)),
            VPRConfig(min_cluster_instances=40, max_vpr_clusters=3),
        )
        regions = []

        def recording(clustered, config, vpr_cluster_ids=None):
            regions.extend(vpr_cluster_ids)
            return seeded_placement(clustered, config, vpr_cluster_ids)

        monkeypatch.setattr(flow_module, "seeded_placement", recording)
        flow = ClusteredPlacementFlow(
            FlowConfig(tool="innovus", shape_selector=selector, run_routing=False)
        )
        result = flow.run(small_design_fresh)
        shaped = {
            c for c, s in result.selection.shapes.items() if s != uniform_shape()
        }
        assert len(shaped) == 3 and set(regions) == shaped
        recorded = flow._run_config(small_design_fresh)
        assert recorded["min_cluster_instances"] == 40
        assert recorded["max_vpr_clusters"] == 3

    @pytest.mark.parametrize("method", ["mfc", "leiden", "louvain", "bc", "ec"])
    def test_ablation_clusterers(self, small_design_fresh, method):
        flow = ClusteredPlacementFlow(
            FlowConfig(tool="openroad", clustering=method, run_routing=False)
        )
        result = flow.run(small_design_fresh)
        assert result.num_clusters >= 1
        assert result.metrics.hpwl > 0

    def test_unknown_clusterer_rejected(self, small_design_fresh):
        flow = ClusteredPlacementFlow(FlowConfig(clustering="nope"))
        with pytest.raises(ValueError):
            flow.run(small_design_fresh)

    def test_blob_placement(self, small_design_fresh):
        result = blob_placement_flow(small_design_fresh)
        assert result.num_clusters > 1
        assert result.metrics.hpwl > 0
        assert "clustering" in result.metrics.runtimes

    def test_flow_restores_net_weights(self, small_design_fresh):
        before = [n.weight for n in small_design_fresh.nets]
        ClusteredPlacementFlow(
            FlowConfig(tool="openroad", run_routing=False)
        ).run(small_design_fresh)
        after = [n.weight for n in small_design_fresh.nets]
        assert before == after

    def test_similar_hpwl_to_default(self):
        """The headline Table 2 behaviour at small scale: seeded
        placement lands within ~15% of the default flow's HPWL."""
        from repro.designs import DesignSpec, generate_design

        d1 = generate_design(DesignSpec("cmp", 800, clock_period=0.8, seed=31))
        d2 = generate_design(DesignSpec("cmp", 800, clock_period=0.8, seed=31))
        base = default_flow(d1, run_routing=False).metrics.hpwl
        ours = (
            ClusteredPlacementFlow(FlowConfig(run_routing=False))
            .run(d2)
            .metrics.hpwl
        )
        assert ours == pytest.approx(base, rel=0.15)


class TestMetrics:
    def test_placement_runtime_excludes_vpr(self):
        metrics = PPAMetrics(
            hpwl=1.0,
            runtimes={"clustering": 1.0, "vpr": 100.0, "incremental_place": 2.0},
        )
        assert metrics.placement_runtime == pytest.approx(3.0)

    def test_as_row(self):
        metrics = PPAMetrics(hpwl=10.0, rwl=12.0, wns=-0.1, tns=-1.0, power=2.0)
        row = metrics.as_row()
        assert row["hpwl"] == 10.0
        assert row["rwl"] == 12.0
        assert row["cpu"] == 0.0

    def test_as_row_handles_missing(self):
        row = PPAMetrics(hpwl=1.0).as_row()
        assert np.isnan(row["rwl"])
