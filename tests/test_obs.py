"""`repro.obs`: one stage clock feeding three outputs of one session.

The per-output behaviours (paths, parent links, status history, the
disabled path) are pinned where they always were — ``tests/perf``,
``tests/telemetry``, ``tests/monitor`` — as tests of ``obs``.  This
module pins what only exists because the three share one session: one
interval read by every output, the spine's perf-only mode, the
per-thread stack, and the run lifecycle.
"""

import json
import sys
import threading

import pytest

from repro import monitor, obs, perf, telemetry
from repro.core.flow import ClusteredPlacementFlow, FlowConfig
from repro.core.ppa_clustering import PPAClusteringConfig
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig
from repro.eco import EcoSession, parse_edits
from repro.monitor.status import load_status


@pytest.fixture(autouse=True)
def _outputs_off():
    yield
    monitor.disable()
    telemetry.disable()
    telemetry.reset()
    perf.disable()
    perf.reset()


def _flow_config(checkpoint_dir=None):
    return FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=100),
        vpr_config=VPRConfig(
            min_cluster_instances=50,
            max_vpr_clusters=2,
            placer_iterations=2,
            candidates=default_candidate_grid()[:4],
        ),
        checkpoint_dir=checkpoint_dir,
    )


#: stage name -> the ``runtimes`` key that reads the same interval.
FLOW_CLOCKS = {
    "flow.clustering": None,
    "cluster.hierarchy": "hier_clustering",
    "cluster.sta": "sta",
    "cluster.multilevel": "clustering",
    "flow.vpr": "vpr",
    "flow.seeded_placement": None,
    "seeded.cluster_place": "cluster_place",
    "seeded.seed": "seed",
    "seeded.incremental_place": "incremental_place",
    "flow.cts": "cts",
    "flow.route": "route",
    "flow.sta": "sta_eval",
}
#: The one evaluation stage runs in the flow and again inside every ECO
#: apply (nested under ``eco.metrics``), so these record twice.
EVALUATION = ("flow.cts", "flow.route", "flow.sta")
ECO_CLOCKS = {
    "eco.apply": "eco_total",
    "eco.apply_edits": "eco_apply",
    "eco.recluster": "eco_recluster",
    "eco.vpr": "eco_vpr",
    "eco.place": "eco_place",
    "eco.metrics": "eco_metrics",
    **{name: FLOW_CLOCKS[name] for name in EVALUATION},
}


def test_one_interval_feeds_every_output(small_design_fresh, tmp_path):
    """Perf total, span duration, status elapsed and the runtimes entry
    of a stage are the same float: one clock pair, read four times."""
    out = tmp_path / "run"
    perf.enable()
    telemetry.enable(str(out))
    monitor.enable(str(out), interval=60.0, status_interval=0.0)
    checkpoint = str(tmp_path / "ckpt")
    flow = ClusteredPlacementFlow(_flow_config(checkpoint)).run(small_design_fresh)
    session = EcoSession(checkpoint)
    victim = next(
        i for i in session.design.instances
        if i.master.name == "NAND2_X1" and not i.fixed
    )
    eco = session.apply(parse_edits(
        [{"kind": "resize", "instance": victim.name, "master": "NAND2_X2"}]
    ))
    monitor.disable()

    totals = {}
    for path, stat in perf.report().stages.items():
        if stat["calls"] == 1:
            totals.setdefault(path.rsplit("/", 1)[-1], []).append(stat["total_s"])
    spans, parent_name = {}, {}
    records = sorted(telemetry.get_session().tracer.export(), key=lambda r: r["t0"])
    by_id = {record["id"]: record for record in records}
    for record in records:
        spans.setdefault(record["name"], []).append(record["dur"])
        parent = by_id.get(record["parent"])
        parent_name.setdefault(record["name"], []).append(parent and parent["name"])
    status = {}
    for entry in load_status(str(out))["stages"]:
        assert entry["state"] == "done"
        status.setdefault(entry["name"], []).append(entry["elapsed_s"])

    for clocks, runtimes, reading in (
        (FLOW_CLOCKS, flow.metrics.runtimes, 0),
        (ECO_CLOCKS, eco.metrics.runtimes, -1),
    ):
        for name, key in clocks.items():
            assert len(spans[name]) == (2 if name in EVALUATION else 1), name
            interval = spans[name][reading]
            assert interval > 0.0
            assert totals[name][reading] == interval, name
            if reading == 0 or name not in EVALUATION:
                # (the status table follows two levels: an apply's
                # evaluation stages sit on the third)
                assert status[name][reading] == interval, name
            if key is not None:
                assert runtimes[key] == interval, name
    for name in EVALUATION:
        assert parent_name[name] == [None, "eco.metrics"]
    # The ECO result's own table is the eco_* part of its metric record's.
    assert set(eco.runtimes) == {k for k in ECO_CLOCKS.values() if k.startswith("eco_")}
    assert {k: eco.metrics.runtimes[k] for k in eco.runtimes} == eco.runtimes


def test_perf_only_is_the_mode_the_spine_traces_in(small_design_fresh):
    """With only ``perf.enable()`` (what the spine's ``Tracer.installed``
    does) a flow keeps counters and stage aggregates and not one span,
    event or stream point; the read surface behaves as it always did."""
    perf.enable()
    perf.reset()
    result = ClusteredPlacementFlow(_flow_config()).run(small_design_fresh)
    perf.disable()
    report = perf.report()
    assert report.counters["vpr.candidates_evaluated"] == 8
    assert perf.counter_value("b2b.solves") == report.counters["b2b.solves"] > 0
    assert perf.counter_value("sta.incremental.updates") == 0
    assert report.stages["flow.vpr"]["total_s"] == result.metrics.runtimes["vpr"]
    assert "flow.vpr/vpr.select/vpr.sweep/vpr.place" in report.stages
    records = telemetry.get_session()
    assert len(records.tracer) == len(records.events) == 0
    assert records.metrics.names() == []
    perf.reset()
    assert perf.report().counters == {} and perf.report().stages == {}
    assert perf.counter_value("b2b.solves") == 0


def test_telemetry_only_keeps_no_timers_aggregate(small_design_fresh):
    telemetry.enable()
    ClusteredPlacementFlow(_flow_config()).run(small_design_fresh)
    names = {r["name"] for r in telemetry.get_session().tracer.export()}
    assert {"flow.vpr", "vpr.place", "vpr.cache_key"} - names == {"vpr.cache_key"}
    assert perf.report().stages == {} and perf.report().counters == {}


def test_runtimes_exist_with_every_output_off(small_design_fresh):
    result = ClusteredPlacementFlow(_flow_config()).run(small_design_fresh)
    runtimes = result.metrics.runtimes
    assert set(FLOW_CLOCKS.values()) - {None} <= set(runtimes)
    assert all(runtimes[key] > 0.0 for key in runtimes)
    assert result.selection.runtime > 0.0


def test_stage_feeds_the_outputs_on_at_entry():
    with obs.stage("before") as before:
        perf.enable()
        telemetry.enable()
        with obs.stage("inside"):
            pass
    assert before.elapsed > 0.0
    # "before" was entered with everything off: it is on no stack, so
    # "inside" is a root in both the aggregate and the trace.
    assert set(perf.report().stages) == {"inside"}
    (record,) = telemetry.get_session().tracer.export()
    assert (record["name"], record["parent"]) == ("inside", None)


def test_threads_nest_independently():
    """Each thread has its own stack; the shared aggregate loses no
    interval under contention (shortened switch interval)."""
    perf.enable()
    telemetry.enable()
    workers, rounds = 8, 200
    barrier = threading.Barrier(workers)

    def work(index):
        barrier.wait(timeout=10.0)
        for _ in range(rounds):
            with obs.stage(f"outer{index}"):
                with obs.stage("inner"):
                    obs.count("ticks")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    stages = perf.report().stages
    assert set(stages) == {f"outer{i}" for i in range(workers)} | {
        f"outer{i}/inner" for i in range(workers)
    }
    assert all(stat["calls"] == rounds for stat in stages.values())
    assert perf.counter_value("ticks") == workers * rounds
    records = telemetry.get_session().tracer.export()
    by_id = {r["id"]: r for r in records}
    assert len(by_id) == len(records) == 2 * workers * rounds
    for record in records:
        if record["name"] == "inner":
            assert by_id[record["parent"]]["name"].startswith("outer")


class TestRunLifecycle:
    def test_without_flags_records_into_the_callers_session(self):
        perf.enable()
        with obs.run() as run:
            with obs.stage("work"):
                obs.count("n")
        assert run.perf is None and run.report is None
        assert perf.counter_value("n") == 1

    def test_writes_reports_and_restores_the_session(self, tmp_path):
        before = obs.session()
        out = tmp_path / "run"
        with obs.run(
            perf_report=str(tmp_path / "perf.json"),
            telemetry_dir=str(out),
            monitor=True,
            command="unit",
        ) as run:
            assert obs.session() is not before
            assert (perf.is_enabled(), telemetry.is_enabled(), monitor.is_enabled()) == (
                True, True, True
            )
            run.meta["design"] = "d"
            run.qor = {"qor.hpwl": 1.0}
            with obs.stage("work"):
                obs.count("n")
        assert obs.session() is before
        assert not (perf.is_enabled() or telemetry.is_enabled() or monitor.is_enabled())
        assert run.perf.counters["n"] == 1 and run.perf.meta["design"] == "d"
        written = json.loads((out / "run.json").read_text())
        assert written["meta"] == {"command": "unit", "design": "d"}
        assert written["qor"] == {"qor.hpwl": 1.0}
        assert written["events"][0]["type"] == "run.config"
        assert [s["name"] for s in written["spans"]] == ["work"]
        assert written["monitor"]["samples"] >= 1
        status = load_status(str(out))
        assert status["state"] == "done" and status["meta"] == {"command": "unit"}
        assert (out / "report.html").exists()

    def test_failure_publishes_failed_and_writes_no_report(self, tmp_path):
        before = obs.session()
        out = tmp_path / "run"
        with pytest.raises(RuntimeError):
            with obs.run(telemetry_dir=str(out), monitor=True):
                with obs.stage("work"):
                    raise RuntimeError("boom")
        assert obs.session() is before
        status = load_status(str(out))
        assert status["state"] == "failed" and "boom" in status["error"]
        assert [s["state"] for s in status["stages"]] == ["done"]
        assert not (out / "run.json").exists()
