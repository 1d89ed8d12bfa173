"""V-P&R fault tolerance: the sweep's one failure rule.

A work item that fails or is lost on its executor — a whole executor
that cannot run included — is re-run in the sweep's own process until
it has had ``repro.core.sweep.ATTEMPTS`` attempts there (one in a
worker process is not one of them); an item still failing raises
``VPRSweepError``.  NaN
costs never reach selection, and an ``OSError`` raised by the sweep's
own process is never taken for an executor failure.
"""

import os

import pytest

import repro.core.fanout as fanout
import repro.core.sweep as vpr_sweep
from repro import perf
from repro.core.fanout import ItemOutcome, SweepExecutor
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import (
    CandidateEvaluation,
    VPRConfig,
    VPRFramework,
    VPRShapeSelector,
    VPRSweepError,
)
from repro.db.database import DesignDatabase
from repro.designs import DesignSpec, generate_design, load_benchmark
from repro.recovery import faults
from repro.recovery.checkpoint import CheckpointStore


@pytest.fixture(scope="module")
def aes_clusters():
    design = load_benchmark("aes", use_cache=False)
    clustering = ppa_aware_clustering(
        DesignDatabase(design), PPAClusteringConfig(target_cluster_size=150)
    )
    return design, clustering.members()


@pytest.fixture(scope="module")
def small_clusters():
    design = generate_design(
        DesignSpec(
            "small",
            400,
            clock_period=0.7,
            logic_depth=10,
            hierarchy_depth=2,
            hierarchy_branching=3,
            seed=7,
        )
    )
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=120)
    )
    return design, clustering.members()


def _config(**kwargs) -> VPRConfig:
    base = dict(
        min_cluster_instances=60,
        max_vpr_clusters=2,
        placer_iterations=2,
        candidates=default_candidate_grid()[:6],
    )
    base.update(kwargs)
    return VPRConfig(**base)


def _candidate(ar=1.0, util=0.9):
    grid = default_candidate_grid()
    for c in grid:
        if c.aspect_ratio == ar and c.utilization == util:
            return c
    return grid[0]


class TestBestOf:
    """The selection-time guard of the NaN bugfix."""

    def test_nan_candidates_never_win(self):
        framework = VPRFramework(VPRConfig())
        evaluations = [
            CandidateEvaluation(_candidate(), float("nan"), float("nan"),
                                error="ValueError('boom')"),
            CandidateEvaluation(_candidate(2.0, 0.8), 5.0, 1.0),
            CandidateEvaluation(_candidate(0.5, 0.8), 3.0, 1.0),
        ]
        best = framework._best_of(evaluations)
        assert best is evaluations[2]

    def test_nonfinite_costs_excluded_even_without_error(self):
        framework = VPRFramework(VPRConfig())
        evaluations = [
            CandidateEvaluation(_candidate(), float("inf"), 0.0),
            CandidateEvaluation(_candidate(2.0, 0.8), 4.0, 1.0),
        ]
        assert framework._best_of(evaluations) is evaluations[1]

    def test_all_invalid_raises_with_details(self):
        framework = VPRFramework(VPRConfig())
        evaluations = [
            CandidateEvaluation(_candidate(), float("nan"), float("nan"),
                                error="TimeoutError()"),
        ]
        with pytest.raises(VPRSweepError) as excinfo:
            framework._best_of(evaluations, cluster_id=7)
        message = str(excinfo.value)
        assert "cluster 7" in message
        assert "TimeoutError" in message

    def test_is_valid_property(self):
        good = CandidateEvaluation(_candidate(), 1.0, 2.0)
        bad = CandidateEvaluation(_candidate(), float("nan"), 2.0)
        failed = CandidateEvaluation(_candidate(), 1.0, 2.0, error="x")
        assert good.is_valid
        assert not bad.is_valid
        assert not failed.is_valid


class FlakyEvaluator:
    """Fails each item a scripted number of times, then succeeds."""

    def __init__(self, config, failures_per_item):
        self.config = config
        self.remaining = dict(failures_per_item)
        self.calls = []

    def __call__(self, sub, cell_area, candidate, cluster_id=None):
        key = (cluster_id, self.config.candidates.index(candidate))
        self.calls.append(key)
        if self.remaining.get(key, 0) > 0:
            self.remaining[key] -= 1
            raise RuntimeError(f"transient failure for {key}")
        return CandidateEvaluation(
            candidate=candidate, hpwl_cost=1.0, congestion_cost=1.0
        )


class LosingExecutor(SweepExecutor):
    """A process-crossing executor whose every item is lost in
    transit (dead worker): no attempt reaches the evaluator."""

    name = "losing"

    def width(self):
        return 2

    def map_chunks(self, state, chunks, chunk_fn):
        for index, chunk in enumerate(chunks):
            yield index, [ItemOutcome.lost("worker died")] * len(chunk)


def _scripted(monkeypatch, failures_per_item, lose=False):
    """A framework on a scripted single-item evaluator; returns
    ``(sweep, evaluator)`` with ``sweep()`` running cluster 0's
    three-candidate grid through ``sweep_clusters``."""
    config = VPRConfig(
        candidates=default_candidate_grid()[:3], jobs=2 if lose else 1
    )
    framework = VPRFramework(config)
    evaluator = FlakyEvaluator(config, failures_per_item)
    monkeypatch.setattr(framework, "evaluate_candidate", evaluator)

    def no_batch(*args, **kwargs):
        # A raising batch isolates its items: each takes its attempt
        # through the scripted single-item evaluator.
        raise RuntimeError("batch isolated")

    monkeypatch.setattr(framework, "evaluate_candidates", no_batch)
    monkeypatch.setattr(framework, "induce", lambda *a: (object(), 100.0))
    if lose:
        framework.executor_factory = LosingExecutor
        in_process = vpr_sweep._sweep_state
        monkeypatch.setattr(
            vpr_sweep,
            "_sweep_state",
            lambda framework, executor, clusters: (
                {}
                if executor.crosses_process
                else in_process(framework, executor, clusters)
            ),
        )

    def sweep():
        (result,) = framework.sweep_clusters(None, {0: []}, [0])
        return result

    return sweep, evaluator


class TestFailureRule:
    """Attempt accounting of the one rule, on a scripted evaluator."""

    def test_each_item_evaluated_once_after_success(self, monkeypatch):
        sweep, evaluator = _scripted(monkeypatch, {(0, 1): 1})
        result = sweep()
        # (0,0) and (0,2) succeed on their first attempt; (0,1) takes
        # one failure plus the success, and nothing waits in between.
        assert evaluator.calls == [(0, 0), (0, 1), (0, 2), (0, 1)]
        assert all(e.is_valid for e in result.evaluations)

    def test_lost_remote_attempt_is_not_charged(self, monkeypatch):
        # Every item is lost by its process-crossing executor without
        # reaching the evaluator.  That attempt is not one of the
        # ATTEMPTS this process owes an item: all three take their
        # first in-process attempt, uncounted as a retry, and (0,0)
        # still has a second one for its failure.
        sweep, evaluator = _scripted(monkeypatch, {(0, 0): 1}, lose=True)
        perf.enable()
        perf.reset()
        try:
            result = sweep()
            retries = perf.counter_value("vpr.item.retry")
        finally:
            perf.disable()
            perf.reset()
        assert evaluator.calls == [(0, 0), (0, 1), (0, 2), (0, 0)]
        assert retries == 1
        assert all(e.is_valid for e in result.evaluations)

    def test_terminal_failure_raises(self, monkeypatch):
        sweep, evaluator = _scripted(monkeypatch, {(0, 0): 99})
        with pytest.raises(
            VPRSweepError,
            match=rf"cluster 0, candidate 0 .* failed after {vpr_sweep.ATTEMPTS} attempt",
        ):
            sweep()
        assert evaluator.calls.count((0, 0)) == vpr_sweep.ATTEMPTS


class TestSerialRetries:
    """A terminal item on the inline executor; recovery by the second
    attempt is a cell of ``tests/core/test_sweep_matrix.py`` on every
    executor."""

    def test_terminal_failure_raises_by_default(self, small_clusters):
        design, members = small_clusters
        config = _config()
        framework = VPRFramework(config)
        c = framework.config.eligible_clusters(members)[0]
        # Armed once per attempt the item gets in this process.
        faults.configure(",".join([f"raise:vpr.item:{c}/1"] * vpr_sweep.ATTEMPTS))
        with pytest.raises(VPRSweepError, match=f"cluster {c}, candidate 1"):
            framework.sweep_cluster(design, members[c], c)


def _record_fleets(monkeypatch, dies_mid_sweep=False):
    """The fleets the sweep builds from now on, in build order; with
    ``dies_mid_sweep`` each returns its first chunk and then fails."""
    fleets = []

    class Recorded(fanout.FleetExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fleets.append(self)

        def map_chunks(self, payload, chunks, chunk_fn):
            resolved = super().map_chunks(payload, chunks, chunk_fn)
            if not dies_mid_sweep:
                yield from resolved
                return
            yield next(resolved)
            raise OSError("fleet died mid-sweep")

    monkeypatch.setattr(vpr_sweep, "FleetExecutor", Recorded)
    return fleets


def _all_reaped(fleets):
    """One fleet was built and closed, and every worker it forked was
    reaped without being killed."""
    (fleet,) = fleets
    codes = fleet.worker_exit_codes
    return fleet._closed and len(codes) == fleet.workers and None not in codes


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork unavailable")
class TestParallelRecovery:
    def _select(self, design, members, config):
        return VPRShapeSelector(config).select(design, members)

    def test_killed_worker_recovered_by_parent_retry(self, small_clusters):
        """A worker os._exits mid-item; the parent re-evaluates the
        lost items and the selection is bit-identical to serial."""
        design, members = small_clusters
        serial = self._select(design, members, _config())
        eligible = _config().eligible_clusters(members)[:2]
        c = eligible[0]
        faults.configure(f"kill:vpr.item:{c}/1")
        parallel = self._select(design, members, _config(jobs=2))
        assert parallel.shapes == serial.shapes
        for s, p in zip(serial.sweeps, parallel.sweeps):
            for es, ep in zip(s.evaluations, p.evaluations):
                assert es.hpwl_cost == ep.hpwl_cost

    def test_hung_worker_bounded_by_item_timeout(self, small_clusters):
        """A hang is cut short by the SIGALRM item timeout, reported as
        a failed item, and recovered parent-side."""
        design, members = small_clusters
        serial = self._select(design, members, _config())
        c = _config().eligible_clusters(members)[0]
        faults.configure(f"hang:vpr.item:{c}/0")
        parallel = self._select(
            design, members, _config(jobs=2, item_timeout=0.5)
        )
        assert parallel.shapes == serial.shapes

    def test_pool_failure_falls_back_to_serial(
        self, small_clusters, monkeypatch
    ):
        """A fleet whose ``map_chunks`` raises OSError mid-sweep is shut
        down with its workers reaped, and what it had not returned is
        evaluated in process with identical results."""
        design, members = small_clusters
        serial = self._select(design, members, _config())
        fleets = _record_fleets(monkeypatch, dies_mid_sweep=True)
        parallel = self._select(design, members, _config(jobs=2))
        assert _all_reaped(fleets)
        assert parallel.shapes == serial.shapes
        for s, p in zip(serial.sweeps, parallel.sweeps):
            for es, ep in zip(s.evaluations, p.evaluations):
                assert es.hpwl_cost == ep.hpwl_cost
                assert es.congestion_cost == ep.congestion_cost

    def test_dying_fleet_costs_only_unreturned(
        self, aes_clusters, monkeypatch
    ):
        """The chunk the fleet returned before dying is not evaluated
        again: 2 clusters x 6 shapes cost 12 evaluations, not 16."""
        design, members = aes_clusters
        config = dict(
            min_cluster_instances=50, chunk_size=4,
            candidates=default_candidate_grid()[:6],
        )
        inline = self._select(design, members, _config(**config))
        fleets = _record_fleets(monkeypatch, dies_mid_sweep=True)
        perf.enable()
        perf.reset()
        try:
            parallel = self._select(design, members, _config(jobs=2, **config))
            evaluated = perf.counter_value("vpr.candidates_evaluated")
            fallback = perf.counter_value("vpr.executor.fallback")
        finally:
            perf.disable()
            perf.reset()
        assert len(parallel.sweeps) == 2
        assert (evaluated, fallback) == (12, 1)
        assert parallel.shapes == inline.shapes
        assert _all_reaped(fleets)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("site", ["vpr.item.saved:#1", "vpr.collect"])
    def test_own_oserror_propagates_on_every_executor(
        self, small_clusters, tmp_path, monkeypatch, jobs, site
    ):
        """An OSError raised by the sweep's own process — a checkpoint
        write, the collection loop — is not an executor failure: it
        propagates at every width and nothing falls back."""
        design, members = small_clusters
        fleets = _record_fleets(monkeypatch)
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.initialize({"test": "own-oserror"})
        faults.configure(f"oserror:{site}")
        perf.enable()
        perf.reset()
        try:
            with pytest.raises(OSError, match="injected"):
                VPRShapeSelector(
                    _config(jobs=jobs), checkpoint=store
                ).select(design, members)
            fallback = perf.counter_value("vpr.executor.fallback")
        finally:
            perf.disable()
            perf.reset()
        assert fallback == 0
        if jobs > 1:
            assert _all_reaped(fleets)

    def test_published_state_released_after_clean_run(
        self, small_clusters, monkeypatch
    ):
        design, members = small_clusters
        fleets = _record_fleets(monkeypatch)
        self._select(design, members, _config(jobs=2))
        assert _all_reaped(fleets)


class TestInlineExecutor:
    def test_sweeps_from_a_worker_thread_without_touching_sigalrm(
        self, small_clusters
    ):
        """``jobs=1`` evaluates in the calling thread and installs no
        signal handler — ``item_timeout`` bounds worker processes only
        — so a sweep works off the main thread (where ``signal.signal``
        would raise) and leaves SIGALRM exactly as it found it."""
        import signal
        import threading

        design, members = small_clusters
        expected = VPRShapeSelector(_config()).select(design, members)
        handler = signal.getsignal(signal.SIGALRM)
        box = {}

        def sweep():
            try:
                box["selection"] = VPRShapeSelector(
                    _config(item_timeout=0.5)
                ).select(design, members)
            except BaseException as exc:  # surfaced by the assert below
                box["error"] = exc

        thread = threading.Thread(target=sweep)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert "error" not in box, box.get("error")
        assert box["selection"].shapes == expected.shapes
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
