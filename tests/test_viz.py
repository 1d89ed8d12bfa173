"""SVG visualisation tests."""

import numpy as np
import pytest

from repro.route import GCellGrid, GlobalRouter
from repro.viz import (
    render_clusters_svg,
    render_congestion_svg,
    render_placement_svg,
)


class TestPlacementSvg:
    def test_valid_svg(self, toy_design):
        text = render_placement_svg(toy_design)
        assert text.startswith("<?xml")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<rect") >= toy_design.num_instances

    def test_writes_file(self, toy_design, tmp_path):
        path = tmp_path / "p.svg"
        render_placement_svg(toy_design, path=str(path))
        assert path.exists()
        assert path.read_text().startswith("<?xml")

    def test_ports_rendered(self, toy_design):
        text = render_placement_svg(toy_design)
        assert text.count("<circle") == len(toy_design.ports)

    def test_macros_coloured(self, medium_design):
        text = render_placement_svg(medium_design, macro_color="#deadbe")
        assert "#deadbe" in text


class TestClusterSvg:
    def test_distinct_colors(self, small_design):
        cluster_of = np.arange(small_design.num_instances) % 7
        text = render_clusters_svg(small_design, cluster_of)
        import re

        colors = set(re.findall(r'fill="(#[0-9a-f]{6})"', text))
        assert len(colors) >= 7

    def test_single_cluster(self, toy_design):
        text = render_clusters_svg(toy_design, [0] * toy_design.num_instances)
        assert "</svg>" in text


class TestCongestionSvg:
    def test_heat_map(self, small_design_fresh):
        from repro.place import GlobalPlacer, PlacementProblem

        design = small_design_fresh
        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        text = render_congestion_svg(design, result.grid)
        assert "</svg>" in text
        assert text.count("<rect") > 10  # background + cells

    def test_empty_grid(self, toy_design):
        grid = GCellGrid.for_floorplan(toy_design.floorplan)
        text = render_congestion_svg(toy_design, grid)
        # Only the background rect.
        assert text.count("<rect") == 1
