"""Assorted unit tests: library sanity, bench-table helpers, VPR die
setup, seeded-placement regions, generator knobs."""

import numpy as np
import pytest

from benchmarks._tables import _fmt, bench_scale, format_table
from benchmarks.ext.shape_extensions import _configure_virtual_die
from repro.core.ppa_clustering import ppa_aware_clustering
from repro.core.seeded import _cluster_regions
from repro.core.clustered_netlist import build_clustered_netlist
from repro.core.shapes import ShapeCandidate
from repro.core.subnetlist import extract_subnetlist
from repro.db.database import DesignDatabase
from repro.designs import DesignSpec, generate_design
from repro.designs.nangate45 import COMB_MIX, SEQ_MIX, make_library
from repro.netlist.design import PinDirection


class TestLibrarySanity:
    def test_every_comb_cell_has_one_output(self):
        lib = make_library()
        for master in lib.values():
            if master.is_sequential:
                continue
            assert len(master.output_pins()) == 1

    def test_sequential_cells_have_clock(self):
        lib = make_library()
        for master in lib.values():
            if master.is_sequential:
                assert master.clock_pin() is not None

    def test_drive_strengths_scale(self):
        lib = make_library()
        assert lib["INV_X2"].drive_resistance < lib["INV_X1"].drive_resistance
        assert lib["INV_X2"].width > lib["INV_X1"].width
        assert lib["INV_X2"].leakage_power > lib["INV_X1"].leakage_power

    def test_mix_weights_normalised_enough(self):
        assert sum(w for _n, w in COMB_MIX) == pytest.approx(1.0, abs=0.02)
        assert sum(w for _n, w in SEQ_MIX) == pytest.approx(1.0, abs=0.01)

    def test_mix_names_exist(self):
        lib = make_library()
        for name, _w in COMB_MIX + SEQ_MIX:
            assert name in lib

    def test_positive_electricals(self):
        for master in make_library().values():
            assert master.area > 0
            assert master.intrinsic_delay > 0 or master.is_sequential
            assert master.leakage_power > 0


class TestBenchTableHelpers:
    def test_format_alignment(self):
        text = format_table(
            "T", ["a", "bb"], [["x", 1.0], ["yy", 123456.0]], note="n"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert lines[-1] == "n"

    def test_fmt_floats(self):
        assert _fmt(0.0) == "0"
        assert _fmt(12345.6) == "12346"
        assert _fmt(12.345) == "12.35"
        assert _fmt(0.1234) == "0.123"
        assert _fmt("abc") == "abc"

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == pytest.approx(2.5)
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert bench_scale() == pytest.approx(1.0)


class TestVirtualDie:
    def test_die_matches_shape(self, small_design):
        db = DesignDatabase(small_design)
        clustering = ppa_aware_clustering(db)
        members = max(clustering.members(), key=len)
        sub = extract_subnetlist(small_design, members).to_design()
        area = sum(small_design.instances[i].area for i in members)
        shape = ShapeCandidate(aspect_ratio=1.5, utilization=0.8)
        _configure_virtual_die(sub, area, shape)
        fp = sub.floorplan
        core_area = (fp.die_width - 2) * (fp.die_height - 2)
        assert area / core_area == pytest.approx(0.8, rel=1e-6)
        assert (fp.die_height - 2) / (fp.die_width - 2) == pytest.approx(
            1.5, rel=1e-6
        )

    def test_ports_on_periphery(self, small_design):
        db = DesignDatabase(small_design)
        clustering = ppa_aware_clustering(db)
        members = max(clustering.members(), key=len)
        sub = extract_subnetlist(small_design, members).to_design()
        area = sum(small_design.instances[i].area for i in members)
        _configure_virtual_die(sub, area, ShapeCandidate(1.0, 0.85))
        fp = sub.floorplan
        for port in sub.ports.values():
            on_edge = (
                port.x in (0.0,)
                or port.y in (0.0,)
                or port.x == pytest.approx(fp.die_width)
                or port.y == pytest.approx(fp.die_height)
            )
            assert on_edge, (port.name, port.x, port.y)


class TestClusterRegions:
    def test_regions_built_for_vpr_clusters(self, small_design_fresh):
        design = small_design_fresh
        db = DesignDatabase(design)
        clustering = ppa_aware_clustering(db)
        cn = build_clustered_netlist(design, clustering.cluster_of)
        # Put cluster instances somewhere concrete.
        fp = design.floorplan
        for c in range(cn.num_clusters):
            inst = cn.design.instance(f"cluster_{c}")
            inst.x = 0.5 * (fp.core_llx + fp.core_urx)
            inst.y = 0.5 * (fp.core_lly + fp.core_ury)
        vpr_ids = [0, 1]
        regions = _cluster_regions(cn, margin_factor=1.5, vpr_cluster_ids=vpr_ids)
        assert len(regions) == 2
        for region, c in zip(regions, vpr_ids):
            assert region.llx >= fp.core_llx - 1e-9
            assert region.urx <= fp.core_urx + 1e-9
            members = [
                v for v in cn.members[c] if not design.instances[v].fixed
            ]
            assert region.vertex_ids == members

    def test_region_size_tracks_shape(self, small_design_fresh):
        design = small_design_fresh
        db = DesignDatabase(design)
        clustering = ppa_aware_clustering(db)
        shapes = {0: ShapeCandidate(aspect_ratio=1.0, utilization=0.5)}
        cn = build_clustered_netlist(design, clustering.cluster_of, shapes=shapes)
        fp = design.floorplan
        inst = cn.design.instance("cluster_0")
        inst.x = 0.5 * (fp.core_llx + fp.core_urx)
        inst.y = 0.5 * (fp.core_lly + fp.core_ury)
        (region,) = _cluster_regions(cn, 1.0, [0])
        expected_area = cn.cluster_areas[0] / 0.5
        assert region.width * region.height == pytest.approx(
            expected_area, rel=0.05
        )


class TestGeneratorKnobs:
    def test_explicit_port_count(self):
        design = generate_design(
            DesignSpec("p", 200, num_ports=30, clock_period=0.7, seed=3)
        )
        # 30 IO ports + clk.
        assert len(design.ports) == 31

    def test_locality_reduces_cut(self):
        def cut_fraction(locality):
            from repro.core.hier_clustering import hierarchy_based_clustering
            from repro.netlist.hierarchy import HierarchyTree
            from repro.netlist.hypergraph import Hypergraph

            design = generate_design(
                DesignSpec(
                    "loc",
                    400,
                    locality=locality,
                    clock_period=0.7,
                    hierarchy_depth=2,
                    seed=9,
                )
            )
            hg = Hypergraph.from_netlist(design.arrays())
            result = hierarchy_based_clustering(hg, HierarchyTree(design))
            return hg.cut_size(result.cluster_of) / hg.edge_weights.sum()

        assert cut_fraction(0.9) < cut_fraction(0.2)
