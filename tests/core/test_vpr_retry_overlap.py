"""Overlapped retry backoff in the sweep's one retry scheduler.

Regression guard for the event-driven scheduler in
``VPRFramework._retry_failed_items``, driven through the front door
(``sweep_clusters``): backoff windows for distinct failed items must
run *concurrently* (total stall bounded by the longest single item's
backoff chain), not serially (sum of all windows) — on every executor,
``jobs=1`` included.  Time is virtualised through the ``vpr._SLEEP`` /
``vpr._CLOCK`` module hooks, so these tests are instant and exact.
"""

import pytest

from repro.core import vpr
from repro.core.fanout import ItemOutcome, SweepExecutor
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import (
    CandidateEvaluation,
    VPRConfig,
    VPRFramework,
    VPRSweepError,
)


class FakeTimer:
    """Virtual clock: sleeping advances time, nothing else does."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    @property
    def total_slept(self):
        return sum(self.sleeps)


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


def _harness(
    monkeypatch, failures_per_item, retry_limit=3, backoff=1.0, lose=False,
    on_terminal_failure="raise",
):
    """A framework wired to a fake clock and a scripted evaluator;
    returns ``(sweep, timer, evaluator)`` with ``sweep()`` running
    cluster 0's three-candidate grid through ``sweep_clusters``."""
    timer = FakeTimer()
    monkeypatch.setattr(vpr, "_CLOCK", timer.clock)
    monkeypatch.setattr(vpr, "_SLEEP", timer.sleep)

    config = VPRConfig(
        retry_limit=retry_limit,
        retry_backoff=backoff,
        candidates=default_candidate_grid()[:3],
        jobs=2 if lose else 1,
        on_terminal_failure=on_terminal_failure,
    )
    framework = VPRFramework(config)
    evaluator = FlakyEvaluator(config, failures_per_item)
    monkeypatch.setattr(framework, "evaluate_candidate", evaluator)

    def no_batch(*args, **kwargs):
        # A raising batch isolates its items: each takes its first
        # attempt through the scripted single-item evaluator.
        raise RuntimeError("batch isolated")

    monkeypatch.setattr(framework, "evaluate_candidates", no_batch)
    monkeypatch.setattr(framework, "induce", lambda *a: (object(), 100.0))
    if lose:
        framework.executor_factory = LosingExecutor
        monkeypatch.setattr(framework, "_sweep_state", lambda *a: {})

    def sweep():
        (result,) = framework.sweep_clusters(None, {0: []}, [0])
        return result

    return sweep, timer, evaluator


class TestOverlappedBackoff:
    def test_backoff_windows_overlap_not_sum(self, monkeypatch):
        # Three items each fail once with a 1s backoff.  A blocking
        # loop (the old jobs=1 path) sleeps 3s, 1s per item in
        # sequence; the scheduler parks all three 1s windows
        # concurrently and sleeps once.
        failures = {(0, 0): 1, (0, 1): 1, (0, 2): 1}
        sweep, timer, _ = _harness(monkeypatch, failures, backoff=1.0)
        result = sweep()

        assert timer.total_slept == pytest.approx(1.0)
        assert all(e.error is None for e in result.evaluations)

    def test_stall_bounded_by_longest_chain(self, monkeypatch):
        # Item A fails twice (backoff 1s then 2s -> 3s chain); B and C
        # fail once (1s each).  Serial backoff would stall 1+2+1+1=5s;
        # overlapped, the total stall is A's chain alone.
        failures = {(0, 0): 2, (0, 1): 1, (0, 2): 1}
        sweep, timer, _ = _harness(monkeypatch, failures, backoff=1.0)
        result = sweep()

        assert timer.total_slept == pytest.approx(3.0)
        assert all(e.is_valid for e in result.evaluations)

    def test_exponential_schedule_per_item(self, monkeypatch):
        # One item failing three times waits 1s, 2s, then 4s.
        failures = {(0, 0): 3}
        sweep, timer, _ = _harness(
            monkeypatch, failures, retry_limit=3, backoff=1.0
        )
        result = sweep()

        assert timer.sleeps == pytest.approx([1.0, 2.0, 4.0])
        assert result.evaluations[0].is_valid

    def test_all_items_evaluated_exactly_once_after_success(
        self, monkeypatch
    ):
        failures = {(0, 0): 0, (0, 1): 2}
        sweep, timer, evaluator = _harness(
            monkeypatch, failures, backoff=0.5
        )
        sweep()

        # (0,0) succeeds on its first attempt; (0,1) takes two
        # failures plus the final success.
        assert evaluator.calls.count((0, 0)) == 1
        assert evaluator.calls.count((0, 1)) == 3
        assert timer.total_slept == pytest.approx(0.5 + 1.0)

    def test_lost_remote_attempt_is_not_charged(self, monkeypatch):
        # Every item is lost by its (pool/fleet) executor without ever
        # reaching the evaluator.  That attempt is not one of the
        # retry_limit + 1 this process owes the item: all three take
        # their first in-process attempt at once, with no backoff and
        # no retry counted.
        failures = {(0, 0): 1, (0, 1): 0, (0, 2): 0}
        sweep, timer, evaluator = _harness(
            monkeypatch, failures, retry_limit=1, backoff=1.0, lose=True
        )
        result = sweep()

        assert evaluator.calls[:3] == [(0, 0), (0, 1), (0, 2)]
        assert timer.sleeps == pytest.approx([1.0])  # (0,0)'s one retry
        assert all(e.is_valid for e in result.evaluations)

    def test_terminal_failure_still_raises(self, monkeypatch):
        failures = {(0, 0): 99}
        sweep, timer, _ = _harness(
            monkeypatch, failures, retry_limit=2, backoff=1.0
        )
        with pytest.raises(VPRSweepError, match=r"failed after 3 attempt\(s\)"):
            sweep()
        # Attempts: first + 2 retries -> backoffs 1s and 2s.
        assert timer.total_slept == pytest.approx(3.0)

    def test_terminal_failure_recorded_when_configured(self, monkeypatch):
        failures = {(0, 0): 99}
        sweep, timer, _ = _harness(
            monkeypatch, failures, retry_limit=1, backoff=1.0,
            on_terminal_failure="exclude",
        )
        result = sweep()

        failed = result.evaluations[0]
        assert failed.error is not None  # error string recorded
        assert not failed.is_valid
        assert result.best != failed.candidate
