"""Extension: PPA-aware clustering in two-tier 3D placement (the
paper's stated future work).

Runs the two-tier flow on ariane and BlackParrot, with the PPA-aware
clustering vs. plain FC driving the tier assignment, and reports the
3D/2D wirelength ratio, via counts and footprint halving — the classic
3D benefit (WL -> ~1/sqrt(2)) traded against vias.
"""

import pytest

from benchmarks._tables import format_table, publish
from repro.core.ppa_clustering import PPAClusteringConfig
from benchmarks.ext.three_d import three_d_placement_flow
from repro.designs import load_benchmark

DESIGNS = ["ariane", "BlackParrot"]
_RESULTS = {}


def _run(name):
    out = {}
    for label, config in (
        ("PPA-aware", PPAClusteringConfig()),
        (
            "plain FC",
            PPAClusteringConfig(
                use_hierarchy=False, use_timing=False, use_switching=False
            ),
        ),
    ):
        design = load_benchmark(name, use_cache=False)
        out[label] = three_d_placement_flow(design, clustering_config=config)
    return out


@pytest.mark.parametrize("name", DESIGNS)
def test_3d_design(benchmark, name):
    result = benchmark.pedantic(_run, args=(name,), rounds=1, iterations=1)
    _RESULTS[name] = result
    for record in result.values():
        assert record.wirelength_ratio < 1.0  # 3D must beat 2D WL


def test_3d_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name in DESIGNS:
        result = _RESULTS.get(name)
        if result is None:
            continue
        for label in ("PPA-aware", "plain FC"):
            r = result[label]
            rows.append(
                [
                    name if label == "PPA-aware" else "",
                    label,
                    f"{r.wirelength_ratio:.3f}",
                    r.via_count,
                    f"{r.footprint_3d / r.footprint_2d:.2f}",
                    r.num_clusters,
                ]
            )
    text = format_table(
        "Extension: two-tier 3D placement (WL normalised to the 2D flow)",
        ["Design", "Clustering", "3D/2D WL", "Vias", "Footprint", "Clusters"],
        rows,
        note=(
            "Face-to-face two-tier model: half footprint, density "
            "budget 2.0, one via per tier-crossing net.  The paper "
            "lists 3D placement as future work."
        ),
    )
    publish("ext_3d", text)
    assert rows
