"""Clustered netlist construction tests."""

import numpy as np
import pytest

from repro.core.clustered_netlist import build_clustered_netlist
from repro.core.shapes import ShapeCandidate
from repro.db.database import DesignDatabase
from repro.core.ppa_clustering import ppa_aware_clustering


@pytest.fixture
def clustered(small_design_fresh):
    db = DesignDatabase(small_design_fresh)
    result = ppa_aware_clustering(db)
    return (
        small_design_fresh,
        result,
        build_clustered_netlist(small_design_fresh, result.cluster_of),
    )


class TestStructure:
    def test_one_instance_per_cluster(self, clustered):
        _design, result, cn = clustered
        assert cn.design.num_instances == result.num_clusters
        assert cn.num_clusters == result.num_clusters

    def test_ports_preserved(self, clustered):
        design, _result, cn = clustered
        assert set(cn.design.ports) == set(design.ports)

    def test_cluster_areas(self, clustered):
        design, result, cn = clustered
        total = cn.cluster_areas.sum()
        assert total == pytest.approx(design.total_cell_area())

    def test_internal_nets_dropped(self, clustered):
        design, result, cn = clustered
        # Every clustered net must span >= 2 clusters or touch a port.
        for net in cn.design.nets:
            clusters = {i.name for i in net.instances()}
            ports = [r for r in net.pins() if r.is_port]
            assert len(clusters) + len(ports) >= 2

    def test_clustered_netlist_valid(self, clustered):
        _d, _r, cn = clustered
        assert cn.design.validate() == []

    def test_macro_masters(self, clustered):
        _d, _r, cn = clustered
        for inst in cn.design.instances:
            assert inst.master.is_macro

    def test_net_count_matches_crossing_nets(self, clustered):
        design, result, cn = clustered
        crossing = 0
        for net in design.nets:
            if net.is_clock:
                continue
            clusters = {
                int(result.cluster_of[i.index]) for i in net.instances()
            }
            ports = [r for r in net.pins() if r.is_port]
            if len(clusters) + len(ports) >= 2 and (len(clusters) >= 2 or ports):
                crossing += 1
        assert cn.design.num_nets == crossing


class TestShapes:
    def test_shape_realised_in_macro(self, small_design_fresh):
        db = DesignDatabase(small_design_fresh)
        result = ppa_aware_clustering(db)
        shape = ShapeCandidate(aspect_ratio=1.5, utilization=0.8)
        cn = build_clustered_netlist(
            small_design_fresh, result.cluster_of, shapes={0: shape}
        )
        macro = cn.lef.macro_for(0)
        assert macro.height / macro.width == pytest.approx(1.5)
        assert macro.width * macro.height == pytest.approx(
            cn.cluster_areas[0] / 0.8
        )

    def test_default_uniform_shape(self, clustered):
        _d, _r, cn = clustered
        for c in range(cn.num_clusters):
            assert cn.shapes[c].aspect_ratio == pytest.approx(1.0)
            assert cn.shapes[c].utilization == pytest.approx(0.9)


class TestWeights:
    def test_io_weight_applied(self, small_design_fresh):
        db = DesignDatabase(small_design_fresh)
        result = ppa_aware_clustering(db)
        plain = build_clustered_netlist(small_design_fresh, result.cluster_of)
        weighted = build_clustered_netlist(
            small_design_fresh, result.cluster_of, io_net_weight=4.0
        )
        boost = 0
        for p_net, w_net in zip(plain.design.nets, weighted.design.nets):
            if p_net.touches_port():
                assert w_net.weight == pytest.approx(4.0 * p_net.weight)
                boost += 1
            else:
                assert w_net.weight == pytest.approx(p_net.weight)
        assert boost > 0

    def test_multipliers_applied(self, small_design_fresh):
        db = DesignDatabase(small_design_fresh)
        result = ppa_aware_clustering(db)
        plain = build_clustered_netlist(small_design_fresh, result.cluster_of)
        target = plain.design.nets[0]
        source_net = small_design_fresh.net(target.name)
        multipliers = np.ones(small_design_fresh.num_nets)
        multipliers[source_net.index] = 3.0
        boosted = build_clustered_netlist(
            small_design_fresh,
            result.cluster_of,
            net_weight_multipliers=multipliers,
        )
        assert boosted.design.net(target.name).weight == pytest.approx(
            3.0 * target.weight
        )


class TestSeeding:
    def test_seed_positions_at_cluster_centres(self, clustered):
        design, result, cn = clustered
        for c in range(cn.num_clusters):
            inst = cn.design.instance(f"cluster_{c}")
            inst.x = 10.0 + c
            inst.y = 20.0 + c
        cn.seed_flat_positions(scatter=0.0)
        for inst in design.instances:
            if inst.fixed:
                continue
            c = int(result.cluster_of[inst.index])
            assert inst.x == pytest.approx(10.0 + c)
            assert inst.y == pytest.approx(20.0 + c)

    def test_scatter_stays_in_footprint(self, clustered):
        design, result, cn = clustered
        for c in range(cn.num_clusters):
            inst = cn.design.instance(f"cluster_{c}")
            inst.x, inst.y = 30.0, 30.0
        cn.seed_flat_positions(scatter=1.0, seed=0)
        for inst in design.instances:
            if inst.fixed:
                continue
            c = int(result.cluster_of[inst.index])
            macro = cn.lef.macro_for(c)
            assert abs(inst.x - 30.0) <= macro.width / 2 + 1e-9
            assert abs(inst.y - 30.0) <= macro.height / 2 + 1e-9

    def test_length_mismatch_rejected(self, small_design_fresh):
        with pytest.raises(ValueError):
            build_clustered_netlist(small_design_fresh, [0, 1])
