"""One identity matrix over the sweep's executors and fault kinds.

The sweep is one loop (``VPRFramework.sweep_clusters``) over a
``SweepExecutor``; this matrix pins that *where* items evaluate and
*what* goes wrong on the way change nothing observable:

* executor: inline (``jobs=1``) and a loopback fleet of two forked
  workers (``jobs=2``);
* fault: none, one item's first attempt raising
  (``raise:vpr.item:<c>/<k>``), a whole lockstep batch raising
  (``raise:vpr.batch``), and an item going terminal (its spec armed
  once per attempt the sweep's own process owes it, so the sweep
  raises ``VPRSweepError``);
* stores: what a checkpoint and a cache hold when the sweep starts —
  nothing, every item cached, every item checkpointed, half of one
  cluster missing from an otherwise full cache.

Faults are armed through ``REPRO_FAULTS`` so every process — fleet
workers included — holds its own armed copy.  Each run must
match the inline run under the same fault in evaluations, chosen
shapes (or the terminal error), ``vpr.item.retry`` /
``vpr.item.terminal`` counts, the ``vpr.total_cost`` stream and the
final ``vpr.items`` progress record;
and the recoverable faults must match the clean run outright.  With
every output on, what a worker process recorded reaches the parent as
one ``obs.worker_payload()`` on its ``WorkerEnvelope``: the merged
work counters, the multiset of span names and the cost streams must
not depend on the executor either.

Stored results resolve in the sweep's own process, before anything is
chunked: whatever the executor, the same items hit, miss, are stored
and are checkpointed; only the misses are evaluated (a cluster's misses
as one batch); and a sweep the stores serve in full builds no executor
— no fleet listener, no fork, no worker process.

What crosses the boundary is one :mod:`repro.codec` frame: the config's
result fingerprint and the sub-netlists' one flat form
(``NetlistArrays`` columns) — and a fleet worker evaluates with
``NetlistArrays.from_design`` rigged to raise.
"""

import multiprocessing
import os
import shutil
from collections import Counter

import pytest

import repro.core.fanout as fanout
import repro.netlist.snapshot as snapshot
from repro import codec, monitor, perf, telemetry
from repro.cache import EvaluationCache, netlist_digest
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.sweep import ATTEMPTS, _sweep_state
from repro.core.vpr import (
    VPRConfig, VPRFramework, VPRShapeSelector, VPRSweepError,
)
from repro.db.database import DesignDatabase
from repro.netlist.arrays import COLUMNS, NetlistArrays
from repro.recovery import faults
from repro.recovery.checkpoint import CheckpointStore

EXECUTORS = {
    "inline": dict(jobs=1),
    "fleet": dict(jobs=2),
}
#: The candidate whose first attempt the item faults hit.
FAULTY = 2
#: Counters of the evaluation itself (not of where it ran).
WORK_COUNTERS = (
    "vpr.candidates_evaluated", "b2b.solves", "b2b.cg_iterations",
    "steiner.rsmt.miss",
)
#: Traffic on the two stores (all zero when none is attached).
STORE_COUNTERS = (
    "vpr.cache.hit", "vpr.cache.miss", "vpr.cache.store",
    "recovery.item.reused", "recovery.item.saved",
)
#: Shape grid size of the matrix's sweeps.
GRID = 6


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
    """The ``REPRO_FAULTS`` spec of one fault kind."""
    item = f"raise:vpr.item:{swept[0]}/{FAULTY}"
    return {
        "none": None,
        "item": item,
        "batch": "raise:vpr.batch",
        "terminal": ",".join([item] * ATTEMPTS),
    }[kind]


def _config(executor):
    return VPRConfig(
        min_cluster_instances=60,
        max_vpr_clusters=2,
        placer_iterations=2,
        candidates=default_candidate_grid()[:GRID],
        chunk_size=4,
        **EXECUTORS[executor],
    )


def _values(name):
    """A telemetry stream's values ([] when nothing was recorded)."""
    stream = telemetry.stream(name)
    return list(stream.values) if stream is not None else []


def _run(
    clusters, executor, kind, out_dir, monkeypatch,
    checkpoint=None, cache=None, executor_factory=None,
):
    """Everything observable about one sweep."""
    design, members, swept = clusters
    spec = _fault(kind, swept)
    config = _config(executor)
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
        selector = VPRShapeSelector(config, checkpoint=checkpoint, cache=cache)
        selector.framework.executor_factory = executor_factory
        try:
            selection = selector.select(design, members)
            outcome = {
                "shapes": selection.shapes,
                "evaluations": [
                    (s.cluster_id, k, e.hpwl_cost, e.congestion_cost, e.is_valid)
                    for s in selection.sweeps
                    for k, e in enumerate(s.evaluations)
                ],
            }
        except VPRSweepError as exc:
            outcome = {"error": str(exc)}
        return {
            **outcome,
            "retry": perf.counter_value("vpr.item.retry"),
            "terminal": perf.counter_value("vpr.item.terminal"),
            "total_cost": _values("vpr.total_cost"),
            "progress": [
                r for r in session.progress.records() if r["name"] == "vpr.items"
            ],
            "counters": {n: perf.counter_value(n) for n in WORK_COUNTERS},
            "stores": {n: perf.counter_value(n) for n in STORE_COUNTERS},
            "spans": sorted(
                Counter(
                    r["name"] for r in telemetry.get_session().tracer.export()
                ).items()
            ),
            "streams": {
                n: _values(n) for n in ("vpr.hpwl_cost", "vpr.congestion_cost")
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
    """Equality that treats NaN costs as equal."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("kind", ["none", "item", "batch", "terminal"])
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_executor_and_fault_change_nothing_observable(
    clusters, executor, kind, tmp_path, tmp_path_factory, monkeypatch
):
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
    if kind == "terminal":
        # The faulty item failed both attempts the sweep's process owes
        # it (one counted retry): the sweep raises naming it, with
        # every other item settled and no cost recorded.
        assert (run["retry"], run["terminal"]) == (1, 1)
        assert f"cluster {clusters[2][0]}, candidate {FAULTY} " in run["error"]
        assert run["progress"][0]["done"] == run["progress"][0]["total"] == items - 1
        assert run["total_cost"] == []
    else:
        assert run["progress"][0]["done"] == run["progress"][0]["total"] == items
        # Recovered (or never disturbed): indistinguishable from clean
        # but for the one counted retry of the item fault.
        assert (run["retry"], run["terminal"]) == (int(kind == "item"), 0)
        for key in ("shapes", "evaluations", "total_cost", "progress"):
            assert _same(run[key], clean[key]), key


# ----------------------------------------------------------------------
# Stored results: resolved before chunking, in the sweep's own process
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def primed(clusters, tmp_path_factory):
    """``(cache dir, checkpoint dir, entry paths of the first swept
    cluster's odd candidates)`` left behind by one inline sweep."""
    design, members, swept = clusters
    root = tmp_path_factory.mktemp("primed")
    cache = EvaluationCache(str(root / "cache"))
    framework = VPRFramework(
        _config("inline"),
        checkpoint=CheckpointStore(str(root / "checkpoint")),
        cache=cache,
    )
    framework.sweep_clusters(design, members, swept)
    sub, cell_area = framework.induce(design, members[swept[0]])
    odd = [
        cache._entry_path(framework._cache_key(sub, cell_area, k)).relative_to(
            cache.directory
        )
        for k in range(1, GRID, 2)
    ]
    return root / "cache", root / "checkpoint", odd


def _stores(state, primed, tmp_path):
    """A private (checkpoint, cache) pair in the given starting state."""
    cache_dir, checkpoint_dir, odd = primed
    if state in ("cached", "half"):
        shutil.copytree(cache_dir, tmp_path / "cache")
    if state == "checkpointed":
        shutil.copytree(checkpoint_dir, tmp_path / "checkpoint")
    if state == "half":
        for entry in odd:
            (tmp_path / "cache" / entry).unlink()
    return (
        CheckpointStore(str(tmp_path / "checkpoint")),
        EvaluationCache(str(tmp_path / "cache")),
    )


def _expected_traffic(state):
    items = 2 * GRID
    missing = {"cold": items, "cached": 0, "checkpointed": 0, "half": GRID // 2}[
        state
    ]
    reused = items if state == "checkpointed" else 0
    return {
        "vpr.cache.hit": items - reused - missing,
        "vpr.cache.miss": missing,
        "vpr.cache.store": missing,
        "recovery.item.reused": reused,
        "recovery.item.saved": items - reused,
    }


@pytest.mark.parametrize("state", ["cold", "cached", "checkpointed", "half"])
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_stored_results_resolve_in_the_sweep_process(
    clusters, primed, executor, state, tmp_path, tmp_path_factory, monkeypatch
):
    clean = _inline(clusters, "none", tmp_path_factory, monkeypatch)
    checkpoint, cache = _stores(state, primed, tmp_path)
    served = state in ("cached", "checkpointed")

    def refuse(*_args, **_kwargs):
        raise AssertionError("a fully served sweep built an executor")

    if served:
        # No fleet worker may be forked.
        monkeypatch.setattr(os, "fork", refuse)
    batches = []
    evaluate = VPRFramework.evaluate_candidates

    def recording(self, sub, cell_area, candidates, cluster_id=None):
        batches.append((cluster_id, list(candidates)))
        return evaluate(self, sub, cell_area, candidates, cluster_id=cluster_id)

    monkeypatch.setattr(VPRFramework, "evaluate_candidates", recording)
    run = _run(
        clusters, executor, "none", tmp_path / "out", monkeypatch,
        checkpoint=checkpoint, cache=cache,
        executor_factory=refuse if served else None,
    )

    # Cold == warm == resumed == mixed, on every executor.
    for key in ("shapes", "evaluations", "total_cost", "streams", "progress"):
        assert _same(run[key], clean[key]), key
    assert run["stores"] == _expected_traffic(state)
    missing = run["stores"]["vpr.cache.miss"]
    assert run["counters"]["vpr.candidates_evaluated"] == missing
    assert (
        cache.session_hits, cache.session_misses, cache.session_stores
    ) == tuple(run["stores"][n] for n in STORE_COUNTERS[:3])
    if executor != "inline" or served:
        assert batches == []  # this process only resolved and settled
    elif state == "half":
        # A half-cached cluster batches exactly its misses.
        assert batches == [(clusters[2][0], default_candidate_grid()[1:GRID:2])]


# ----------------------------------------------------------------------
# One flat form: what is shipped, and that no worker walks a netlist
# ----------------------------------------------------------------------
def _shipped(clusters):
    """``(framework, induced clusters, shipped state)``, as
    ``_sweep_on`` builds them for an executor that crosses a process
    boundary."""
    design, members, swept = clusters
    framework = VPRFramework(_config("inline"))
    induced = {c: framework.induce(design, members[c]) for c in swept}
    return framework, induced, _sweep_state(
        framework, fanout.SweepExecutor(), induced
    )


def test_fleet_payload_is_codec_payloads_and_config(clusters):
    framework, induced, state = _shipped(clusters)
    # One codec frame: what goes in comes back out unchanged.
    frame = codec.encode_frame(state["header"], state["columns"])
    header, columns = codec.decode_frame(frame)
    assert header == state["header"]
    assert set(header) == {"config", "clusters", "item_timeout", "obs"}
    assert VPRConfig.from_result_fingerprint(header["config"]) == VPRConfig(
        **{
            name: getattr(framework.config, name)
            for name in VPRConfig.EVALUATION_FIELDS + VPRConfig.SELECTION_FIELDS
        }
    )
    assert sorted(entry["id"] for entry in header["clusters"]) == sorted(induced)
    for entry in header["clusters"]:
        sub, cell_area = induced[entry["id"]]
        assert entry["area"] == cell_area
        assert entry["form"] == snapshot.FORM
        prefix = f"{entry['id']}/"
        own = {
            name[len(prefix):]: column
            for name, column in columns.items()
            if name.startswith(prefix)
        }
        assert set(own) >= set(COLUMNS)
        payload = {"form": entry["form"], "header": entry["header"], "columns": own}
        assert netlist_digest(snapshot.netlist_from_snapshot(payload)) == (
            netlist_digest(sub)
        )


def _refuse_walk(*_args, **_kwargs):
    raise AssertionError("a worker walked a netlist: NetlistArrays.from_design")


def _fleet_worker_body(frame, items, conn):
    """A fleet worker's life after the dial: install the shipped state,
    evaluate a chunk — with the object-graph walk rigged to raise."""
    from repro.core import sweep, worker

    NetlistArrays.from_design = _refuse_walk
    try:
        header, columns = codec.decode_frame(frame)
        state = worker._install_state("digest", header, columns)
        outcomes = sweep._evaluate_chunk(state, items)
        conn.send([(o.hpwl_cost, o.congestion_cost, o.error) for o in outcomes])
    except BaseException as exc:  # reported, then the child exits
        conn.send(repr(exc))
    finally:
        conn.close()


def test_fleet_worker_set_up_walks_no_netlist(clusters):
    if not hasattr(os, "fork"):
        pytest.skip("the rigged worker is a forked child")
    framework, induced, state = _shipped(clusters)
    frame = codec.encode_frame(state["header"], state["columns"])
    c = clusters[2][0]
    items = [[c, 0], [c, 3]]
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe(duplex=False)
    child = context.Process(target=_fleet_worker_body, args=(frame, items, child_end))
    child.start()
    child_end.close()
    assert parent_end.poll(120), "the rigged worker never answered"
    answer = parent_end.recv()
    child.join(30)
    assert not child.is_alive()
    sub, cell_area = induced[c]
    expected = framework.evaluate_candidates(
        sub, cell_area, [framework.config.candidates[k] for _c, k in items]
    )
    assert answer == [(e.hpwl_cost, e.congestion_cost, None) for e in expected]


def test_fork_worker_first_chunk_walks_no_netlist(
    clusters, tmp_path, tmp_path_factory, monkeypatch
):
    if not hasattr(os, "fork"):
        pytest.skip("fork unavailable")
    clean = _inline(clusters, "none", tmp_path_factory, monkeypatch)
    parent = os.getpid()
    walk = NetlistArrays.from_design

    def parent_only(design):
        if os.getpid() != parent:
            _refuse_walk()
        return walk(design)

    # Forked fleet workers inherit the rig; the subs they decode carry
    # their flat form.
    monkeypatch.setattr(NetlistArrays, "from_design", parent_only)
    in_parent = []
    evaluate = VPRFramework.evaluate_candidates

    def recording(self, sub, cell_area, candidates, cluster_id=None):
        in_parent.append(os.getpid() == parent)
        return evaluate(self, sub, cell_area, candidates, cluster_id=cluster_id)

    monkeypatch.setattr(VPRFramework, "evaluate_candidates", recording)
    run = _run(clusters, "fleet", "none", tmp_path, monkeypatch)
    assert in_parent == []  # no item came back failed to be redone here
    assert (run["retry"], run["terminal"]) == (0, 0)
    for key in ("shapes", "evaluations", "total_cost", "streams", "counters"):
        assert _same(run[key], clean[key]), key
