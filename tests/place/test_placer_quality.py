"""Placer quality characterisation tests.

These pin down the quality properties the Table 2/3 comparisons rest
on, so regressions in the placer show up as test failures rather than
silently skewing the reproduced tables.
"""

import numpy as np
import pytest

from repro.designs import DesignSpec, generate_design
from repro.place import GlobalPlacer, PlacementProblem, PlacerConfig
from repro.place.hpwl import hpwl


def fresh(seed=201, n=500):
    return generate_design(
        DesignSpec("q", n, clock_period=0.8, logic_depth=8, seed=seed)
    )


class TestQuality:
    def test_connected_cells_end_up_close(self):
        """Mean net HPWL is far below the random-pair expectation."""
        design = fresh()
        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        fp = design.floorplan
        # Expected HPWL of two uniform random points: (W+H)/3.
        random_two_pin = (fp.core_width + fp.core_height) / 3
        two_pin_nets = [
            n for n in design.nets if not n.is_clock and n.degree == 2
        ]
        from repro.place.hpwl import net_hpwl

        mean = np.mean([net_hpwl(design, n) for n in two_pin_nets])
        assert mean < 0.5 * random_two_pin

    def test_io_connected_cells_near_ports(self):
        """Cells on IO nets sit closer to their port than average."""
        from repro.place.hpwl import net_hpwl

        design = fresh(seed=202)
        GlobalPlacer(PlacementProblem(design.arrays(), design.floorplan)).run()
        io_spans = []
        internal_spans = []
        for net in design.nets:
            if net.is_clock or net.degree < 2:
                continue
            span = net_hpwl(design, net) / max(1, net.degree - 1)
            if net.touches_port():
                io_spans.append(span)
            else:
                internal_spans.append(span)
        # IO nets are longer than internal (ports are at the edge) but
        # bounded: within ~6x of internal average.
        assert np.mean(io_spans) < 6 * np.mean(internal_spans)

    def test_net_weight_shortens_net(self):
        """A heavily weighted net gets placed shorter."""
        from repro.place.hpwl import net_hpwl

        def span_of_target(weight):
            design = fresh(seed=203)
            target = max(
                (
                    n
                    for n in design.nets
                    if not n.is_clock and n.degree >= 2 and not n.touches_port()
                ),
                key=lambda n: n.degree,
            )
            target.weight = weight
            problem = PlacementProblem(design.arrays(), design.floorplan)
            GlobalPlacer(problem, PlacerConfig(seed=1)).run()
            return net_hpwl(design, target)

        assert span_of_target(50.0) < span_of_target(1.0)

    def test_quality_stable_across_seeds(self):
        """HPWL varies by < 10% across placer seeds."""
        values = []
        for seed in (0, 1, 2):
            design = fresh(seed=204)
            GlobalPlacer(
                PlacementProblem(design.arrays(), design.floorplan),
                PlacerConfig(seed=seed),
            ).run()
            values.append(hpwl(design.arrays()))
        spread = (max(values) - min(values)) / np.mean(values)
        assert spread < 0.10

    def test_incremental_cheaper_than_full(self):
        """The structural claim behind Table 2: refining a good seed
        takes fewer iterations than placing from scratch."""
        design = fresh(seed=205, n=800)
        problem = PlacementProblem(design.arrays(), design.floorplan)
        full = GlobalPlacer(problem, PlacerConfig(seed=0)).run()
        # Re-place incrementally from the converged result.
        incremental = GlobalPlacer(
            problem, PlacerConfig(incremental=True)
        ).run()
        assert incremental.iterations < full.iterations
        assert incremental.hpwl == pytest.approx(full.hpwl, rel=0.25)
