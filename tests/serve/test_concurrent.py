"""Concurrent jobs on one shared evaluation cache.

The acceptance gate for the serve tentpole: N >= 4 jobs in flight on
one daemon, all sharing a single content-addressed cache, with repeat
submissions of the same spec served from the warm path.
"""

from __future__ import annotations

import time

from tests.serve.conftest import TINY_SPEC, request, submit, wait_job


class TestSharedCache:
    def test_four_concurrent_jobs_and_warm_hits(self, make_app):
        app = make_app(workers=4)

        # Cold run: populates the shared cache.
        cold_id = submit(app, dict(TINY_SPEC))
        cold = wait_job(app, cold_id)
        assert cold["state"] == "done"
        assert cold["counters"].get("vpr.cache.miss", 0) > 0
        assert cold["counters"].get("vpr.cache.store", 0) > 0
        assert cold["counters"].get("vpr.cache.hit", 0) == 0

        # Four concurrent repeats: every shape evaluation is served
        # from the cache the cold job just filled.
        warm_ids = [submit(app, dict(TINY_SPEC)) for _ in range(4)]
        for job_id in warm_ids:
            record = wait_job(app, job_id)
            assert record["state"] == "done", record
            assert record["counters"].get("vpr.cache.hit", 0) > 0
            assert record["counters"].get("vpr.cache.miss", 0) == 0

        status, stats = request(app, "GET", "/stats")
        assert status == 200
        assert stats["jobs"]["done"] == 5
        assert stats["workers"] == 4
        cache = stats["cache"]
        assert cache["entries"] > 0
        assert cache["hits"] > 0
        assert cache["misses"] > 0
        # 4 warm jobs vs 1 cold: hits dominate.
        assert cache["warm_hit_ratio"] > 0.5

    def test_distinct_designs_do_not_collide(self, make_app):
        app = make_app(workers=2)
        other = {
            "design": {"name": "tiny2", "num_instances": 600, "seed": 4},
            "routing": False,
        }
        a = submit(app, dict(TINY_SPEC))
        b = submit(app, other)
        record_a = wait_job(app, a)
        record_b = wait_job(app, b)
        assert record_a["state"] == "done"
        assert record_b["state"] == "done"
        # Different design content => different cache keys => both
        # jobs ran cold even though they shared the cache directory.
        assert record_b["counters"].get("vpr.cache.hit", 0) == 0

    def test_janitor_keeps_cache_bounded(self, make_app, monkeypatch):
        app = make_app(workers=1)
        # Squeeze the shared cache so the post-job janitor gc runs
        # visibly: after each finished job, entries <= the cap.
        monkeypatch.setattr(app.cache, "max_entries", 5)
        job_id = submit(app, dict(TINY_SPEC))
        assert wait_job(app, job_id)["state"] == "done"
        # The job reads "done" from inside _run_job; the worker thread
        # runs the janitor after that, off the job's latency path.
        deadline = time.monotonic() + 30.0
        while app.cache.stats().entries > 5 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert app.cache.stats().entries <= 5
