"""One identity matrix over the sweep's executors and fault kinds.

The sweep is one loop (``VPRFramework.sweep_clusters``) over a
``SweepExecutor``; this matrix pins that *where* items evaluate and
*what* goes wrong on the way change nothing observable:

* executor: inline (``jobs=1``), fork pool, spawn pool, loopback fleet;
* fault: none, one item's first attempt raising
  (``raise:vpr.item:<c>/<k>``), a whole lockstep batch raising
  (``raise:vpr.batch``), and an item going terminal under
  ``retry_limit=0`` / ``on_terminal_failure="exclude"``.

Faults are armed through ``REPRO_FAULTS`` so every process — pool and
fleet workers included — holds its own armed copy.  Each run must
match the inline run under the same fault in evaluations, chosen
shapes, ``vpr.item.retry`` / ``vpr.item.terminal`` counts, the
``vpr.total_cost`` stream and the final ``vpr.items`` progress record;
and the recoverable faults must match the clean run outright.  With
every output on, what a worker process recorded reaches the parent as
one ``obs.worker_payload()`` on its ``WorkerEnvelope``: the merged
work counters, the multiset of span names and the cost streams must
not depend on the executor either.
"""

import math
from collections import Counter

import pytest

from repro import monitor, perf, telemetry
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig, VPRShapeSelector, _fork_available
from repro.db.database import DesignDatabase
from repro.recovery import faults

EXECUTORS = {
    "inline": dict(jobs=1),
    "fork": dict(jobs=2, start_method="fork"),
    "spawn": dict(jobs=2, start_method="spawn"),
    "fleet": dict(fleet_workers=2),
}
#: The candidate whose first attempt the item faults hit.
FAULTY = 2
#: Counters of the evaluation itself (not of where it ran).
WORK_COUNTERS = (
    "vpr.candidates_evaluated", "b2b.solves", "b2b.cg_iterations",
    "steiner.rsmt.miss",
)


@pytest.fixture(scope="module")
def clusters(small_design):
    db = DesignDatabase(small_design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=120)
    )
    members = clustering.members()
    config = VPRConfig(min_cluster_instances=60, max_vpr_clusters=2)
    swept, _skipped = config.swept_clusters(members)
    assert len(swept) == 2
    return small_design, members, swept


def _fault(kind, swept):
    """``(REPRO_FAULTS spec, VPRConfig overrides)`` of one fault kind."""
    item = f"raise:vpr.item:{swept[0]}/{FAULTY}"
    return {
        "none": (None, {}),
        "item": (item, {}),
        "batch": ("raise:vpr.batch", {}),
        "exclude": (item, dict(retry_limit=0, on_terminal_failure="exclude")),
    }[kind]


def _run(clusters, executor, kind, out_dir, monkeypatch):
    """Everything observable about one sweep."""
    design, members, swept = clusters
    spec, overrides = _fault(kind, swept)
    config = VPRConfig(
        min_cluster_instances=60,
        max_vpr_clusters=2,
        placer_iterations=2,
        candidates=default_candidate_grid()[:6],
        retry_backoff=0.0,
        chunk_size=4,
        **EXECUTORS[executor],
        **overrides,
    )
    if spec is None:
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(faults.ENV_VAR, spec)
    faults.reset()  # the next check() re-reads the environment
    telemetry.enable(str(out_dir))
    session = monitor.enable(str(out_dir), interval=60.0)
    perf.enable()
    perf.reset()
    try:
        selection = VPRShapeSelector(config).select(design, members)
        return {
            "shapes": selection.shapes,
            "evaluations": [
                (s.cluster_id, k, e.hpwl_cost, e.congestion_cost, e.is_valid)
                for s in selection.sweeps
                for k, e in enumerate(s.evaluations)
            ],
            "retry": perf.counter_value("vpr.item.retry"),
            "terminal": perf.counter_value("vpr.item.terminal"),
            "total_cost": list(telemetry.stream("vpr.total_cost").values),
            "progress": [
                r for r in session.progress.records() if r["name"] == "vpr.items"
            ],
            "counters": {n: perf.counter_value(n) for n in WORK_COUNTERS},
            "spans": sorted(
                Counter(
                    r["name"] for r in telemetry.get_session().tracer.export()
                ).items()
            ),
            "streams": {
                n: list(telemetry.stream(n).values)
                for n in ("vpr.hpwl_cost", "vpr.congestion_cost")
            },
        }
    finally:
        perf.disable()
        perf.reset()
        monitor.disable()
        telemetry.disable()
        faults.reset()


#: Inline runs, one per fault kind: what every executor must reproduce.
_INLINE = {}


def _inline(clusters, kind, tmp_path_factory, monkeypatch):
    if kind not in _INLINE:
        _INLINE[kind] = _run(
            clusters, "inline", kind, tmp_path_factory.mktemp("inline"),
            monkeypatch,
        )
    return _INLINE[kind]


def _same(a, b):
    """Equality that treats NaN costs of excluded candidates as equal."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("kind", ["none", "item", "batch", "exclude"])
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_executor_and_fault_change_nothing_observable(
    clusters, executor, kind, tmp_path, tmp_path_factory, monkeypatch
):
    if executor == "fork" and not _fork_available():
        pytest.skip("fork start method unavailable")
    clean = _inline(clusters, "none", tmp_path_factory, monkeypatch)
    reference = _inline(clusters, kind, tmp_path_factory, monkeypatch)
    run = (
        reference
        if executor == "inline"
        else _run(clusters, executor, kind, tmp_path, monkeypatch)
    )
    for key in reference:
        if (key, kind) == ("spans", "batch"):
            # The batch fault fires once per process, so how many
            # batches fall back to single-item evaluation (and with it
            # the number of place/route spans) follows the worker count.
            assert dict(run[key])["vpr.candidate"] == len(run["evaluations"])
            continue
        assert _same(run[key], reference[key]), key

    items = len(clean["evaluations"])
    assert run["progress"][0]["done"] == run["progress"][0]["total"] == items
    if kind == "exclude":
        # The faulty item went terminal on its only attempt and is
        # excluded; every other evaluation is the clean run's.
        assert (run["retry"], run["terminal"]) == (0, 1)
        differing = [
            (got[:2], got[4])
            for got, want in zip(run["evaluations"], clean["evaluations"])
            if not _same(got, want)
        ]
        assert differing == [((clusters[2][0], FAULTY), False)]
        assert math.isnan(run["evaluations"][FAULTY][2])
        assert run["shapes"][clusters[2][0]] != default_candidate_grid()[FAULTY]
        assert len(run["total_cost"]) == items - 1
    else:
        # Recovered (or never disturbed): indistinguishable from clean
        # but for the one counted retry of the item fault.
        assert (run["retry"], run["terminal"]) == (int(kind == "item"), 0)
        for key in ("shapes", "evaluations", "total_cost", "progress"):
            assert _same(run[key], clean[key]), key
