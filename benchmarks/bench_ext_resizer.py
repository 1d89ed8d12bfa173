"""Extension: materialised buffering + sizing vs the virtual model.

The STA delay model charges a logarithmic *virtual buffering* penalty
on overloaded drivers (what OpenROAD's resizer would fix).  This bench
runs the real optimisation passes (repeater insertion + one gate-sizing
pass) after placement and compares post-route WNS/TNS/power against
the unoptimised placement, validating that the virtual model and the
materialised buffers tell the same story.
"""

import pytest

from benchmarks._tables import format_table, publish
from repro.core.flow import evaluate_placed_design
from repro.designs import load_benchmark
from benchmarks.ext.opt import buffer_high_fanout_nets, resize_gates
from repro.place import GlobalPlacer, PlacementProblem
from repro.sta import PlacementWireModel, TimingGraph

DESIGNS = ["jpeg", "ariane"]
_RESULTS = {}


def _run(name):
    base_design = load_benchmark(name, use_cache=False)
    GlobalPlacer(PlacementProblem(base_design)).run()
    base = evaluate_placed_design(base_design)

    opt_design = load_benchmark(name, use_cache=False)
    GlobalPlacer(PlacementProblem(opt_design)).run()
    model = PlacementWireModel(opt_design)
    buffering = buffer_high_fanout_nets(opt_design, model)
    graph = TimingGraph(opt_design)  # rebuilt: connectivity changed
    sizing = resize_gates(opt_design, graph, model)
    optimised = evaluate_placed_design(opt_design)
    return {
        "base": base,
        "opt": optimised,
        "buffers": buffering.buffers_inserted,
        "upsized": sizing.upsized,
        "downsized": sizing.downsized,
    }


@pytest.mark.parametrize("name", DESIGNS)
def test_resizer_design(benchmark, name):
    result = benchmark.pedantic(_run, args=(name,), rounds=1, iterations=1)
    _RESULTS[name] = result
    # Materialised optimisation must not degrade TNS materially.
    assert result["opt"].tns >= result["base"].tns - 0.5


def test_resizer_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name in DESIGNS:
        r = _RESULTS.get(name)
        if r is None:
            continue
        for label in ("base", "opt"):
            m = r[label]
            rows.append(
                [
                    name if label == "base" else "",
                    "virtual model" if label == "base" else "materialised",
                    f"{m.rwl:.0f}",
                    f"{m.wns * 1e3:.0f}",
                    f"{m.tns:.2f}",
                    f"{m.power:.3f}",
                ]
            )
        rows.append(
            [
                "",
                f"({r['buffers']} buffers, {r['upsized']} up / "
                f"{r['downsized']} down)",
                "",
                "",
                "",
                "",
            ]
        )
    text = format_table(
        "Extension: materialised resizer vs virtual buffering model",
        ["Design", "Netlist", "rWL", "WNS", "TNS", "Power"],
        rows,
        note=(
            "Both rows use the same placement; 'materialised' inserts "
            "real repeaters and resizes gates before evaluation."
        ),
    )
    publish("ext_resizer", text)
    assert rows
