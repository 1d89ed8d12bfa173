"""Ratchets: ``repro.sta`` runs on the flat form.

STA reads ``NetlistArrays`` and the graph's flat arrays only, and
writes nothing back.  The per-pin node maps and the tuple adjacency
(``arcs`` / ``preds``) the graph once offered as inspection views are
the tests' oracle (``tests/sta/reference.py``); no function in the
package walks ``Net`` / ``Instance`` objects.
"""

import ast
import gc
import tracemalloc
from pathlib import Path

import repro.sta
from repro.core.flow import ClusteredPlacementFlow, FlowConfig
from repro.core.ppa_clustering import PPAClusteringConfig
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig
from repro.designs import DesignSpec, generate_design
from repro.sta.flat import FlatTiming
from repro.sta.graph import TimingGraph

STA_DIR = Path(repro.sta.__file__).parent

#: Attribute names that reach the object graph or the inspection views.
OBJECT_ATTRS = {
    "nets",
    "instances",
    "ports",
    "sinks",
    "pins",
    "driver",
    "pin_nets",
    "master",
    "sequential_instances",
    "info",
    "node",
    "node_for_ref",
    "_node_of",
    "_node_info",
    "arcs",
    "preds",
}

def _object_uses():
    """(file, qualified function, attribute) of every object-graph
    attribute use in ``src/repro/sta``."""
    uses = []
    for path in sorted(STA_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, ast.Attribute) and node.attr in OBJECT_ATTRS:
                uses.append((path.name, scope, node.attr))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, "")
    return uses


def test_sta_flow_path_walks_no_objects():
    assert _object_uses() == []


def test_flow_builds_no_node_maps():
    design = generate_design(
        DesignSpec(
            "flat_only",
            300,
            clock_period=0.7,
            logic_depth=8,
            hierarchy_depth=2,
            hierarchy_branching=3,
            seed=3,
        )
    )
    config = FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=100),
        vpr_config=VPRConfig(
            min_cluster_instances=60,
            max_vpr_clusters=2,
            placer_iterations=2,
            candidates=default_candidate_grid()[:4],
        ),
        run_routing=True,
    )
    result = ClusteredPlacementFlow(config).run(design)
    assert result.metrics.power is not None
    graph = design.arrays().timing_graph
    assert graph._flat is not None, "the flow never compiled its graph"
    # Nothing on the graph reaches the object view.
    views = {"design", "info", "node", "node_for_ref", "arcs", "preds"}
    assert not views & set(dir(graph))


#: Traced peak (MB) of compiling ``FlatTiming`` for the 10 k-instance
#: design below, before the compile read the flat form: 15.84 MB, of
#: which 13.40 MB stayed alive (the per-pin node maps among it).  The
#: flat compile peaks at ~8.6 MB and keeps ~7.2 MB.
PER_PIN_MAPS_PEAK_MB = 15.84
PEAK_BOUND_MB = 10.5


def test_flat_compile_memory_bound():
    design = generate_design(
        DesignSpec(
            "ml0",
            num_instances=10000,
            seq_fraction=0.20,
            logic_depth=38,
            critical_chains=24,
            hierarchy_depth=5,
            hierarchy_branching=5,
            num_macros=0,
            clock_period=3.00,
            high_fanout_nets=10,
            seed=20_000,
        )
    )
    graph = TimingGraph(design.arrays())
    gc.collect()
    tracemalloc.start()
    try:
        FlatTiming(graph)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= PEAK_BOUND_MB < PER_PIN_MAPS_PEAK_MB
