"""Standalone STA / power analysis walkthrough (the OpenSTA-substitute
API the clustering consumes).

Shows the artefacts Algorithm 1 extracts before clustering: the top-|P|
critical paths (findPathEnds-equivalent), per-net switching activity
(findClkedActivity-equivalent) and the vectorless power breakdown —
then re-runs timing post-placement and post-routing to show the model
fidelity ladder.

    python examples/timing_power_analysis.py [benchmark-name]
"""

import sys

from repro.designs import load_benchmark
from repro.place import GlobalPlacer, PlacementProblem
from repro.route import GlobalRouter, synthesize_clock_tree
from repro.sta import (
    FanoutWireModel,
    PlacementWireModel,
    RoutedWireModel,
    TimingAnalyzer,
    TimingGraph,
    analyze_power,
    find_path_ends,
    propagate_activity,
)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "jpeg"
    design = load_benchmark(name, use_cache=False)
    arrays = design.arrays()
    graph = TimingGraph(arrays)
    print(f"=== {name}: timing graph ===")
    print(
        f"{graph.num_nodes} pins, "
        f"{len(graph.startpoints)} startpoints, "
        f"{len(graph.endpoints)} endpoints"
    )

    # --- Pre-placement (the model the clustering uses) -----------------
    analyzer = TimingAnalyzer(graph, FanoutWireModel())
    report = analyzer.update()
    print(
        f"\npre-place (fanout wireload): WNS={report.wns * 1e3:.0f}ps "
        f"TNS={report.tns:.2f}ns failing={report.num_failing}"
    )
    paths = find_path_ends(analyzer, group_count=5)
    print("top critical paths:")
    for path in paths:
        start = analyzer.graph.node_name(path.startpoint)
        end = analyzer.graph.node_name(path.endpoint)
        print(
            f"  slack={path.slack * 1e3:>8.0f}ps  stages={len(path) // 2:>3}  "
            f"{start} -> {end}"
        )

    activity = propagate_activity(graph)
    hot = sorted(range(len(activity)), key=lambda ni: -activity[ni])[:3]
    print("\nhighest switching activity nets:")
    for net_index in hot:
        name = arrays.net_names[net_index]
        print(f"  {name}: {activity[net_index]:.3f} toggles/cycle")

    # --- Post-placement -------------------------------------------------
    GlobalPlacer(PlacementProblem(arrays, design.floorplan)).run()
    placed = TimingAnalyzer(graph, PlacementWireModel()).update()
    print(
        f"\npost-place: WNS={placed.wns * 1e3:.0f}ps TNS={placed.tns:.2f}ns"
    )

    # --- Post-routing ----------------------------------------------------
    cts = synthesize_clock_tree(arrays, design.floorplan)
    routing = GlobalRouter(arrays, design.floorplan).run()
    wire_model = RoutedWireModel(routing.net_lengths)
    routed = TimingAnalyzer(
        graph, wire_model, clock_uncertainty=cts.skew
    ).update()
    print(
        f"post-route: WNS={routed.wns * 1e3:.0f}ps TNS={routed.tns:.2f}ns  "
        f"(rWL={routing.routed_wirelength:.0f}um, "
        f"clock WL={cts.wirelength:.0f}um, skew={cts.skew * 1e3:.2f}ps)"
    )

    power = analyze_power(
        arrays,
        wire_model,
        activity,
        clock_wirelength=cts.wirelength,
        clock_buffers=cts.num_buffers,
    )
    print(
        f"\npower: total={power.total:.3f}mW  "
        f"(switching={power.switching:.3f}, internal={power.internal:.3f}, "
        f"leakage={power.leakage:.4f}, clock={power.clock:.3f})"
    )


if __name__ == "__main__":
    main()
