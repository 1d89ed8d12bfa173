"""Ratchet: one engine per kernel.

The scalar / object-walk twins of the array kernels live under
``tests/*/reference.py`` as oracles.  These checks keep a selector flag
or a ``_reference`` / ``_scalar`` body from growing back in ``src/``.
"""

import inspect
import re

import pytest

from repro.cluster import fc
from repro.ml.model import TotalCostPredictor
from repro.netlist.hypergraph import Hypergraph
from repro.place import problem
from repro.place.problem import PlacementProblem
from repro.sta import activity, analysis, graph
from repro.sta.activity import propagate_activity
from repro.sta.analysis import TimingAnalyzer
from repro.sta.graph import TimingGraph


@pytest.mark.parametrize(
    "func, flag",
    [
        (Hypergraph.from_netlist, "use_arrays"),
        (PlacementProblem.__init__, "use_arrays"),
        (TimingGraph.__init__, "use_arrays"),
        (TimingAnalyzer.__init__, "vectorize"),
        (propagate_activity, "vectorize"),
        (TotalCostPredictor.__init__, "blocked"),
    ],
)
def test_no_engine_selector(func, flag):
    assert flag not in inspect.signature(func).parameters


@pytest.mark.parametrize("module", [analysis, graph, activity, problem, fc])
def test_no_twin_bodies(module):
    names = set(vars(module))
    for value in vars(module).values():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            names.update(vars(value))
    twins = sorted(n for n in names if re.search(r"_reference$|_scalar$", n))
    assert not twins


# ----------------------------------------------------------------------
# One evaluation stage, one declaration of the V-P&R result fields
# ----------------------------------------------------------------------
def test_eco_has_no_second_flow():
    from repro.core import flow
    from repro.eco.engine import EcoSession

    assert not hasattr(EcoSession, "_vpr_config_from_fingerprint")
    assert not hasattr(EcoSession, "_evaluate")
    assert not hasattr(flow, "_post_place_metrics")
    assert not hasattr(flow, "_members_of")


def test_single_valued_options_stay_deleted():
    from dataclasses import fields

    from repro.core.flow import FlowConfig
    from repro.core.vpr import VPRConfig

    vpr = {f.name for f in fields(VPRConfig)}
    flow = {f.name for f in fields(FlowConfig)}
    assert not vpr & {
        "route_target_cells", "die_margin", "fleet_connect_timeout", "executor",
    }
    assert not flow & {
        "max_cluster_net_weight", "fleet_workers", "fleet_listen", "fleet_spawn",
    }
    assert len(vpr) <= 14
    assert len(flow) <= 14
    # Every declared result field is a real field.
    assert set(VPRConfig.EVALUATION_FIELDS + VPRConfig.SELECTION_FIELDS) <= vpr


# ----------------------------------------------------------------------
# A sweep worker only computes; one executor leaves the process
# ----------------------------------------------------------------------
def test_workers_never_see_a_store():
    import ast
    from dataclasses import fields
    from pathlib import Path

    import repro
    from repro.core import fanout, sweep, worker
    from repro.core.fanout import FleetExecutor, InlineExecutor, ItemOutcome
    from repro.core.vpr import VPRConfig, VPRFramework

    gone = re.compile(
        r"\b(note_lookup|start_method|shared_memory|reset_attachments|_ATTACHED"
        r"|LocalPoolExecutor|ProcessPoolExecutor|publish_state|attach_state"
        r"|_INHERITED|_fork_available|requires_snapshots|fleet_workers"
        r"|fleet_spawn|MAX_DISPATCH|STRAGGLER_FACTOR|_pick_chunk"
        r"|fleet\.redispatch|fleet\.straggler_dup)\b"
    )
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        assert not gone.search(path.read_text()), path
    # Local fleet workers are forked, not spawned.
    assert not re.search(
        r"^\s*(import|from)\s+subprocess\b",
        inspect.getsource(fanout),
        re.MULTILINE,
    )

    assert "cached" not in ItemOutcome._fields
    assert len(fields(VPRConfig)) <= 14

    # Nothing named after the cache crosses the process boundary:
    # not in the fleet worker's module ...
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        or getattr(node, "arg", None) or getattr(node, "name", None)
        for node in ast.walk(ast.parse(inspect.getsource(worker)))
    }
    assert not [n for n in names if n and "cache" in n.lower()]
    # ... and not in what a sweep publishes to its workers.
    framework = VPRFramework(VPRConfig())
    fleet = FleetExecutor(workers=2)
    try:
        for executor in (InlineExecutor(), fleet):
            state = sweep._sweep_state(framework, executor, {})
            keys = set(state) | set(state.get("header", ()))
            assert not [key for key in keys if "cache" in key.lower()]
    finally:
        fleet.close()
    # The chunk evaluator only computes.
    for func in (
        sweep._evaluate_chunk, sweep._cluster_run_worker, sweep._setup_worker,
    ):
        assert not re.search(
            r"_lookup|EvaluationCache|\.cache\b|\.checkpoint\b",
            inspect.getsource(func),
        ), func.__name__


def test_repro_worker_takes_no_cache_flag(capsys):
    from repro.cli import build_parser
    from repro.core import worker

    argv = ["--connect", "h:1", "--cache", "x"]
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["worker", *argv])
    assert excinfo.value.code == 2
    assert "--cache" in capsys.readouterr().err
    # One worker front door: `repro worker`.
    assert not hasattr(worker, "main")


# ----------------------------------------------------------------------
# One flat form of a netlist, one cache of it
# ----------------------------------------------------------------------
def _functions_walking_pins(module):
    """Names of the module's functions (methods included) that iterate a
    net's pin objects."""
    import ast

    walkers = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            source = ast.unparse(node)
            if re.search(r"\.pins\(\)|\.sinks\b", source):
                walkers.add(node.name)
    return walkers


def test_one_flat_form_one_cache():
    import ast
    import importlib
    from pathlib import Path

    import repro
    from repro.cache import keys
    from repro.core import subnetlist, sweep, vpr
    from repro.netlist import snapshot
    from repro.netlist.design import Design

    # (``repro.place.hpwl`` the attribute is the function.)
    hpwl = importlib.import_module("repro.place.hpwl")

    gone = re.compile(
        r"\b(_DesignNetArrays|_net_arrays|_hpwl_net_arrays|_structure_fingerprint"
        r"|_sub_fingerprint|score_arrays|score_pins|_parse_listen"
        r"|_configure_virtual_die)\b"
    )
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        assert not gone.search(path.read_text()), path

    # The codec builds nothing itself: NetlistArrays.to_design does.
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(ast.parse(inspect.getsource(snapshot)))
        if isinstance(node, ast.Call)
    }
    assert not called & {"MasterCell", "CellPin", "PinRef", "Instance", "Net"}
    assert not [n for n in called if n.startswith(("add_", "connect"))]

    # A sub is columns: the V-P&R, fleet-worker and ML paths build no
    # object view of one.
    from repro.core import worker
    from repro.ml import features, model

    for module in (subnetlist, vpr, sweep, worker, features, model):
        called = {
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.Call)
        }
        assert not called & {"to_design", "design_from_snapshot"}, module.__name__

    # Nothing in the sweep, the sub-netlist induce or its digest walks
    # a net's pin objects, and HPWL keeps only the per-net spot check.
    for module in (subnetlist, keys, vpr, sweep):
        assert _functions_walking_pins(module) == set(), module.__name__
    # The induce, its digest and the evaluation read no object graph.
    for module in (subnetlist, keys, vpr):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            attr = getattr(node, "attr", None)
            name = getattr(node, "id", None) or getattr(node, "name", None)
            where = (module.__name__, getattr(node, "lineno", None))
            assert attr not in {"instances", "nets", "pins", "pin_nets"}, where
            assert name != "PinRef", where
    assert _functions_walking_pins(hpwl) == {"net_hpwl"}
    assert not [
        v for v in vars(hpwl).values()
        if inspect.isclass(v) and v.__module__ == hpwl.__name__
    ]

    # One structure-keyed array cache on a Design: the timing graph
    # lives on the flat form, not beside it.
    slots = {k for k in vars(Design("d")) if k.startswith("_") and "cache" in k}
    assert slots == set()
    assert not hasattr(Design, "signal_nets") and not hasattr(Design, "net_degrees")
    assert not {"_timing_graph", "_timing_graph_key"} & set(vars(Design("d")))
    state = Design("d").__getstate__()
    assert "_netlist_arrays" not in state

    # STA and CTS take a flat netlist: no import of the object model,
    # no walk of instances, nets or pin references.
    package = Path(repro.__file__).parent
    for path in [*sorted((package / "sta").glob("*.py")), package / "route" / "cts.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.ImportFrom):
                assert node.module != "repro.netlist.design", where
            if isinstance(node, ast.Import):
                assert "repro.netlist.design" not in [a.name for a in node.names], where
            assert getattr(node, "attr", None) not in {"instances", "nets", "pins"}, where
            names = (getattr(node, "id", None), getattr(node, "name", None))
            assert "PinRef" not in names, where


def test_one_endpoint_parser():
    from repro.core import fanout, wire, worker

    assert not hasattr(worker, "parse_endpoint")
    assert not hasattr(fanout.FleetExecutor, "_parse_listen")
    assert wire.parse_endpoint("[::1]:70") == ("::1", 70)


# ----------------------------------------------------------------------
# One array-native ML selector
# ----------------------------------------------------------------------
def test_ml_selector_has_no_scalar_walks():
    from pathlib import Path

    import repro
    from repro.ml import features, model

    # The per-vertex list walks and the two pivot loops live in
    # tests/ml/reference.py, the dict clique expansion in
    # tests/netlist/reference.py.
    gone = re.compile(
        r"\b(_adjacency_lists|_bfs|_bfs_brandes|_clustering_coefficients"
        r"|_greedy_coloring|_pivot_bfs_stats|_pivot_centralities|pair_weights)\b"
    )
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        assert not gone.search(path.read_text()), path

    # The entry points the spine traces keep their names ...
    assert callable(features.FeatureExtractor.extract)
    assert callable(model.TotalCostGNN.predict_shared)
    # ... the forward lays the batch out once, and the package did not grow.
    assert inspect.getsource(model.TotalCostGNN.predict_shared).count("transpose") == 1
    lines = sum(
        len(path.read_text().splitlines()) for path in (root / "ml").rglob("*.py")
    )
    assert lines <= 1364


# ----------------------------------------------------------------------
# One design generator, one TimingGraph input
# ----------------------------------------------------------------------
def test_one_generator():
    import ast
    from pathlib import Path

    import repro
    from repro.designs import generator

    gone = re.compile(
        r"\b(generate_arrays|_pick_drivers|_multi_arange|_gather_ranges"
        r"|_source_arrays)\b"
    )
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        assert not gone.search(path.read_text()), path

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(generator))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
