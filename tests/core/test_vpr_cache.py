"""Cross-run evaluation cache: warm == cold, bitwise, inline and on
the fleet (``tests/core/test_sweep_matrix.py`` has the executor x store
state matrix), and fault tolerance of a worker taking its state.
"""

import json
import os

import pytest

from repro import perf
from repro.cache import EvaluationCache
from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import (
    VPRConfig,
    VPRFramework,
    VPRShapeSelector,
)
from repro.db.database import DesignDatabase
from repro.designs import DesignSpec, generate_design
from repro.recovery import faults


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def small_clusters():
    design = generate_design(
        DesignSpec(
            "cachetest",
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


def _select(design, members, config, cache=None):
    return VPRShapeSelector(config, cache=cache).select(design, members)


def _assert_identical(a, b):
    assert a.shapes == b.shapes
    assert len(a.sweeps) == len(b.sweeps) > 0
    for s, p in zip(a.sweeps, b.sweeps):
        assert s.cluster_id == p.cluster_id
        assert s.best == p.best
        for es, ep in zip(s.evaluations, p.evaluations):
            assert es.candidate == ep.candidate
            assert es.hpwl_cost == ep.hpwl_cost
            assert es.congestion_cost == ep.congestion_cost


class TestSerialWarmIdentity:
    def test_warm_run_is_byte_identical_and_fully_cached(
        self, small_clusters, tmp_path
    ):
        design, members = small_clusters
        cache = EvaluationCache(str(tmp_path / "cache"))
        cold = _select(design, members, _config(), cache=cache)
        assert cache.stats().entries > 0

        warm = _select(design, members, _config(), cache=cache)
        _assert_identical(cold, warm)

    def test_warm_matches_uncached_run(self, small_clusters, tmp_path):
        """The cache must be invisible: warm results equal a run that
        never saw a cache at all."""
        design, members = small_clusters
        plain = _select(design, members, _config())
        cache = EvaluationCache(str(tmp_path / "cache"))
        _select(design, members, _config(), cache=cache)
        warm = _select(design, members, _config(), cache=cache)
        _assert_identical(plain, warm)

    def test_config_change_invalidates(self, small_clusters, tmp_path):
        design, members = small_clusters
        cache = EvaluationCache(str(tmp_path / "cache"))
        _select(design, members, _config(), cache=cache)
        before = cache.stats().entries
        _select(design, members, _config(placer_iterations=3), cache=cache)
        assert cache.stats().entries == 2 * before

    def test_delta_change_reuses_entries(self, small_clusters, tmp_path):
        """delta is selection-time only; sweeping it must hit."""
        design, members = small_clusters
        cache = EvaluationCache(str(tmp_path / "cache"))
        _select(design, members, _config(delta=0.01), cache=cache)
        before = cache.stats().entries
        _select(design, members, _config(delta=0.5), cache=cache)
        assert cache.stats().entries == before

    def test_corrupted_entries_mid_sweep_fall_back_to_evaluation(
        self, small_clusters, tmp_path
    ):
        design, members = small_clusters
        cache = EvaluationCache(str(tmp_path / "cache"))
        cold = _select(design, members, _config(), cache=cache)
        # Corrupt every stored entry; the warm run must silently
        # re-evaluate and still match.
        for shard in (cache.directory / "objects").iterdir():
            for entry in shard.glob("*.json"):
                entry.write_text("{ truncated")
        warm = _select(design, members, _config(), cache=cache)
        _assert_identical(cold, warm)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork unavailable")
class TestParallelWarmIdentity:
    def test_fork_pool_serves_warm_results(self, small_clusters, tmp_path):
        design, members = small_clusters
        cache = EvaluationCache(str(tmp_path / "cache"))
        cold = _select(design, members, _config(jobs=2), cache=cache)
        warm = _select(design, members, _config(jobs=2), cache=cache)
        _assert_identical(cold, warm)

    def test_serial_cold_parallel_warm_identical(
        self, small_clusters, tmp_path
    ):
        """A cache written by a serial run is served bit-identically by
        fleet workers (and vice versa)."""
        design, members = small_clusters
        cache = EvaluationCache(str(tmp_path / "cache"))
        serial_cold = _select(design, members, _config(), cache=cache)
        parallel_warm = _select(
            design, members, _config(jobs=2), cache=cache
        )
        _assert_identical(serial_cold, parallel_warm)

    def test_worker_killed_attaching_state_degrades_to_retry(
        self, small_clusters, tmp_path
    ):
        """A fleet worker dying while it installs the shipped sweep
        state never produces a result; its items flow to the
        parent-side retry path.  (On a cold sweep: a served one forks
        no worker to ship anything to.)"""
        design, members = small_clusters
        serial = _select(design, members, _config())
        cache = EvaluationCache(str(tmp_path / "cache"))
        faults.configure("kill:fleet.install")
        perf.enable()
        perf.reset()
        try:
            cold = _select(design, members, _config(jobs=2), cache=cache)
            lost = perf.counter_value("vpr.worker.error")
        finally:
            perf.disable()
            perf.reset()
        _assert_identical(serial, cold)
        assert lost > 0
        assert cache.session_stores == cache.stats().entries > 0


class TestFrameworkCacheWiring:
    def test_stored_record_carries_exact_costs(self, small_clusters, tmp_path):
        design, members = small_clusters
        cache = EvaluationCache(str(tmp_path / "cache"))
        config = _config(max_vpr_clusters=1)
        framework = VPRFramework(config, cache=cache)
        c = framework.config.eligible_clusters(members)[0]
        sweep = framework.sweep_cluster(design, members[c], c)
        entries = list((cache.directory / "objects").rglob("*.json"))
        assert len(entries) == len(config.candidates)
        stored = {
            (r["ar"], r["util"]): r
            for r in (json.loads(p.read_text()) for p in entries)
        }
        for evaluation in sweep.evaluations:
            record = stored[
                (
                    evaluation.candidate.aspect_ratio,
                    evaluation.candidate.utilization,
                )
            ]
            assert record["hpwl_cost"] == evaluation.hpwl_cost
            assert record["congestion_cost"] == evaluation.congestion_cost
            assert record["seconds"] >= 0.0


class TestContextFollowsStructureKey:
    """A count-preserving edit of a swept sub is a different netlist: its
    context (digest memo, stacked problem) must not survive it."""

    def test_reconnect_on_an_induced_sub_changes_the_served_digest(
        self, small_clusters, tmp_path
    ):
        from repro.cache import netlist_digest

        design, members = small_clusters
        config = _config()
        swept, _ = config.swept_clusters(members)
        framework = VPRFramework(config, cache=EvaluationCache(str(tmp_path)))
        sub, cell_area = framework.induce(design, members[swept[0]])
        before = framework._context_of(sub).digest()
        key_before = framework._cache_key(sub, cell_area, 0)
        framework.evaluate_candidates(sub, cell_area, config.candidates[:1])
        problem = framework._context_of(sub).problem
        assert problem is not None

        # Move one input pin onto another net: instances, nets and ports
        # all keep their counts.
        counts = (sub.num_instances, sub.num_nets, len(sub.ports))
        inst, pin, other = next(
            (inst, pin, other)
            for inst in sub.instances
            for pin, net in inst.pin_nets.items()
            if net.driver is not None and net.driver.instance is not inst
            for other in sub.nets
            if other is not net and other.driver is not None and other.degree >= 2
        )
        sub.reconnect_pin(inst, pin, other)
        assert counts == (sub.num_instances, sub.num_nets, len(sub.ports))
        assert netlist_digest(sub) != before

        context = framework._context_of(sub)
        assert context.digest() == netlist_digest(sub)
        assert framework._cache_key(sub, cell_area, 0) != key_before
        # ... and it is evaluated as the netlist it now is.
        (served,) = framework.evaluate_candidates(sub, cell_area, config.candidates[:1])
        (fresh,) = VPRFramework(config).evaluate_candidates(
            sub, cell_area, config.candidates[:1]
        )
        assert framework._context_of(sub).problem is not problem
        assert (served.hpwl_cost, served.congestion_cost) == (
            fresh.hpwl_cost, fresh.congestion_cost
        )
