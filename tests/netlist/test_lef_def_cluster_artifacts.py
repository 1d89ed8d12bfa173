"""Cluster artifact round trips: .lef from V-P&R shapes, seed .def."""

import pytest

from repro.core.clustered_netlist import build_clustered_netlist
from repro.core.ppa_clustering import ppa_aware_clustering
from repro.core.shapes import ShapeCandidate
from repro.db.database import DesignDatabase
from repro.netlist.def_format import parse_def, write_def
from repro.netlist.lef import parse_lef, write_lef


class TestClusterArtifacts:
    @pytest.fixture
    def clustered(self, small_design_fresh):
        db = DesignDatabase(small_design_fresh)
        clustering = ppa_aware_clustering(db)
        shapes = {0: ShapeCandidate(aspect_ratio=1.25, utilization=0.8)}
        return build_clustered_netlist(
            small_design_fresh, clustering.cluster_of, shapes=shapes
        )

    def test_lef_roundtrip_preserves_shapes(self, clustered):
        macros = {m.name: m for m in clustered.lef.macros.values()}
        parsed = parse_lef(write_lef(macros))
        assert set(parsed) == set(macros)
        shaped = parsed["cluster_0"]
        assert shaped.height / shaped.width == pytest.approx(1.25, rel=1e-3)

    def test_seed_def_roundtrip(self, clustered):
        from repro.place import GlobalPlacer, PlacementProblem

        placed = clustered.design
        GlobalPlacer(PlacementProblem(placed.arrays(), placed.floorplan)).run()
        text = write_def(clustered.design)
        parsed = parse_def(text)
        assert len(parsed.components) == clustered.num_clusters
        by_name = {c.name: c for c in parsed.components}
        for c in range(clustered.num_clusters):
            inst = clustered.design.instance(f"cluster_{c}")
            loc = by_name[f"cluster_{c}"].location
            assert loc[0] == pytest.approx(inst.x, abs=1e-2)
            assert loc[1] == pytest.approx(inst.y, abs=1e-2)

    def test_macro_area_covers_cluster_cells(self, clustered):
        for c in range(clustered.num_clusters):
            macro = clustered.lef.macro_for(c)
            assert macro.width * macro.height >= clustered.cluster_areas[c] * 0.99
