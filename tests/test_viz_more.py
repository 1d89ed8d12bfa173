"""SVG output structural checks (valid XML, coordinate mapping)."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.viz import (
    render_clusters_svg,
    render_congestion_svg,
    render_placement_svg,
)


class TestSvgWellFormed:
    def test_placement_svg_parses_as_xml(self, toy_design):
        text = render_placement_svg(toy_design)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_clusters_svg_parses_as_xml(self, toy_design):
        text = render_clusters_svg(
            toy_design, [0] * toy_design.num_instances
        )
        ET.fromstring(text)

    def test_congestion_svg_parses_as_xml(self, small_design_fresh):
        from repro.place import GlobalPlacer, PlacementProblem
        from repro.route import GlobalRouter

        design = small_design_fresh
        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        result = GlobalRouter(design.arrays(), design.floorplan).run()
        ET.fromstring(render_congestion_svg(small_design_fresh, result.grid))


class TestCoordinateMapping:
    def test_y_axis_flipped(self, toy_design):
        """SVG y grows downward: an instance near the die top renders
        near y=0."""
        top = toy_design.instance("u1")
        top.x, top.y = 10.0, toy_design.floorplan.die_height - 1.0
        bottom = toy_design.instance("u2")
        bottom.x, bottom.y = 10.0, 1.0
        text = render_placement_svg(toy_design)
        root = ET.fromstring(text)
        rects = [el for el in root if el.tag.endswith("rect")]
        # First rect is the background, second is the core outline;
        # instance rects follow in instance order.
        inst_rects = rects[2:]
        y_top = float(inst_rects[0].get("y"))
        y_bottom = float(inst_rects[1].get("y"))
        assert y_top < y_bottom

    def test_scale_consistency(self, toy_design):
        from repro.viz.svg import IMAGE_WIDTH

        text = render_placement_svg(toy_design)
        root = ET.fromstring(text)
        assert float(root.get("width")) == IMAGE_WIDTH
        expected_height = (
            IMAGE_WIDTH
            * toy_design.floorplan.die_height
            / toy_design.floorplan.die_width
        )
        assert float(root.get("height")) == pytest.approx(
            expected_height, abs=1.0
        )
