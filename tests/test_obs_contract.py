"""The recording surface, held in place by reading the source.

Three ratchets over ``src/repro`` (AST, not grep, so strings and
comments do not count):

* instrumented code records through ``repro.obs`` only — the three
  output packages are switches and readers;
* the flow's stage code owns no clock of its own;
* the stage names are a declared contract: the literals passed to
  ``obs.stage(...)`` are exactly :data:`STAGES`, which
  ``docs/observability.md`` mirrors as its stage table (a later
  benchmark change can bind the measurement spine to it).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Every stage the program can record, by its one spelling.
STAGES = [
    "cluster.baseline",
    "cluster.hierarchy",
    "cluster.multilevel",
    "cluster.sta",
    "eco.apply",
    "eco.apply_edits",
    "eco.metrics",
    "eco.place",
    "eco.recluster",
    "eco.vpr",
    "flow.clustering",
    "flow.cts",
    "flow.eco_base",
    "flow.place",
    "flow.route",
    "flow.seeded_placement",
    "flow.sta",
    "flow.vpr",
    "ml.train",
    "place.global",
    "place.legalize",
    "route.global",
    "seeded.cluster_place",
    "seeded.incremental_place",
    "seeded.seed",
    "sta.update",
    "vpr.cache_key",
    "vpr.candidate",
    "vpr.extract",
    "vpr.ml_select",
    "vpr.place",
    "vpr.route",
    "vpr.score",
    "vpr.select",
    "vpr.sweep",
]

#: Names that once recorded through the output packages.
RECORDING = {
    "perf": {"stage", "count", "merge_counters", "get_registry"},
    "telemetry": {
        "span", "event", "observe", "traced", "worker_snapshot", "merge_worker",
    },
    "monitor": {
        "stage", "start_task", "advance", "set_done", "complete", "set_meta",
        "worker_dir",
    },
}

#: Stage code whose every timing is a read of a stage's ``elapsed``.
CLOCKLESS = (
    "core/flow.py", "eco/engine.py", "core/seeded.py", "core/ppa_clustering.py",
)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _attribute_of(node, owners):
    """``(owner, attr)`` when ``node`` is ``owner.attr`` on a bare name."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in owners
    ):
        return node.value.id, node.attr
    return None


def test_instrumented_code_records_through_obs_only():
    offenders = []
    for name, tree in _modules():
        if name == "obs.py" or name.split("/")[0] in RECORDING:
            continue
        for node in ast.walk(tree):
            hit = _attribute_of(node, RECORDING)
            if hit and hit[1] in RECORDING[hit[0]]:
                offenders.append(f"{name}:{node.lineno} {hit[0]}.{hit[1]}")
    assert offenders == []


def test_output_packages_export_no_recording_function():
    import repro.monitor
    import repro.perf
    import repro.telemetry

    for package in (repro.perf, repro.telemetry, repro.monitor):
        short = package.__name__.rsplit(".", 1)[-1]
        assert not RECORDING[short] & set(vars(package)), short


def test_stage_code_reads_no_clock_of_its_own():
    trees = dict(_modules())
    for name in CLOCKLESS:
        clocks = [
            node.lineno
            for node in ast.walk(trees[name])
            if (isinstance(node, ast.Name) and node.id == "perf_counter")
            or (isinstance(node, ast.Attribute) and node.attr == "perf_counter")
        ]
        assert clocks == [], name


def test_stage_names_are_the_declared_contract():
    used = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _attribute_of(node.func, {"obs"}) == (
                "obs", "stage",
            ):
                first = node.args[0]
                assert isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ), f"{name}:{node.lineno}: stage names are string literals"
                used.add(first.value)
    assert sorted(used) == STAGES


def test_docs_mirror_the_stage_table():
    text = (ROOT / "docs" / "observability.md").read_text()
    table = [
        line.split("|")[1].strip().strip("`")
        for line in text.splitlines()
        if line.startswith("| `")
    ]
    assert [name for name in table if name in STAGES] == STAGES
