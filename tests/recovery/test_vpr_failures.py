"""V-P&R fault tolerance: retries, terminal policies, pool recovery.

The sweep's crash contract: a failing work item is retried with a
bounded budget; a terminal failure either aborts the sweep visibly or
excludes the candidate explicitly — NaN costs never reach selection.
"""

import os

import pytest

import repro.core.fanout as fanout
import repro.core.vpr as vpr
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
from repro.designs import DesignSpec, generate_design
from repro.recovery import faults


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
        retry_backoff=0.0,
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


class TestSerialRetries:
    """The raise policy; recovery by retry and the exclude policy are
    cells of ``tests/core/test_sweep_matrix.py`` on every executor."""

    def test_terminal_failure_raises_by_default(self, small_clusters):
        design, members = small_clusters
        config = _config(retry_limit=0)
        framework = VPRFramework(config)
        c = framework.config.eligible_clusters(members)[0]
        faults.configure(f"raise:vpr.item:{c}/1")
        with pytest.raises(VPRSweepError, match=f"cluster {c}, candidate 1"):
            framework.sweep_cluster(design, members[c], c)


def _record_fleets(monkeypatch):
    """The fleets the sweep builds from now on, in build order."""
    fleets = []

    class Recorded(fanout.FleetExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fleets.append(self)

    monkeypatch.setattr(vpr, "FleetExecutor", Recorded)
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
        """An OSError escaping the collection loop shuts the fleet
        down, reaps its workers and re-runs the sweep on the inline
        executor with identical results (the executor-escape bugfix)."""
        design, members = small_clusters
        serial = self._select(design, members, _config())
        fleets = _record_fleets(monkeypatch)
        faults.configure("oserror:vpr.collect")
        parallel = self._select(design, members, _config(jobs=2))
        assert _all_reaped(fleets)
        assert parallel.shapes == serial.shapes
        for s, p in zip(serial.sweeps, parallel.sweeps):
            for es, ep in zip(s.evaluations, p.evaluations):
                assert es.hpwl_cost == ep.hpwl_cost
                assert es.congestion_cost == ep.congestion_cost

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


class TestConfigValidation:
    def test_bad_terminal_policy_rejected(self):
        with pytest.raises(ValueError, match="on_terminal_failure"):
            VPRConfig(on_terminal_failure="ignore")
