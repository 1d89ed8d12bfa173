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


class TestSourceEditReinducesTheSub:
    """A sub is never edited in place: a count-preserving edit of the
    *source* is a different netlist, so the cluster gets a new sub with
    its own digest, context (digest memo, stacked problem) and cache
    key, and the old sub keeps its columns."""

    def test_reconnect_on_the_source_reinduces(self, small_clusters, tmp_path):
        from repro.cache import netlist_digest
        from repro.netlist.snapshot import design_from_snapshot, design_snapshot

        shared, members = small_clusters
        source = design_from_snapshot(design_snapshot(shared))  # edited below
        config = _config()
        swept, _ = config.swept_clusters(members)
        cluster = members[swept[0]]
        framework = VPRFramework(config, cache=EvaluationCache(str(tmp_path)))
        first = framework.sweep_cluster(source, cluster, cluster_id=swept[0])
        sub, cell_area = framework.induce(source, cluster)
        context = framework._context_of(sub)
        before, problem = context.digest(), context.problem
        key_before = framework._cache_key(sub, cell_area, 0)
        assert problem is not None

        # Move a member's input pin onto another signal net a member
        # drives: instances, nets and ports all keep their counts.
        inside = set(cluster)
        counts = (source.num_instances, source.num_nets, len(source.ports))
        inst, pin, other = next(
            (inst, pin, other)
            for inst in (source.instances[i] for i in cluster)
            for pin, net in inst.pin_nets.items()
            if not net.is_clock
            and net.driver is not None
            and net.driver.instance is not inst
            for other in source.nets
            if other is not net
            and not other.is_clock
            and other.driver is not None
            and other.driver.instance is not None
            and other.driver.instance.index in inside
            and other.degree >= 2
        )
        source.reconnect_pin(inst, pin, other)
        assert counts == (source.num_instances, source.num_nets, len(source.ports))

        new_sub, new_area = framework.induce(source, cluster)
        assert new_sub is not sub and new_area == cell_area
        assert netlist_digest(sub) == before  # the old sub is untouched
        new_context = framework._context_of(new_sub)
        assert new_context is not context
        assert new_context.digest() == netlist_digest(new_sub) != before
        assert framework._cache_key(new_sub, new_area, 0) != key_before

        # ... and the cluster is evaluated as the netlist it now is.
        served = framework.sweep_cluster(source, cluster, cluster_id=swept[0])
        fresh = VPRFramework(config).sweep_cluster(source, cluster, cluster_id=swept[0])
        assert new_context.problem is not problem
        costs = [(e.hpwl_cost, e.congestion_cost) for e in served.evaluations]
        assert costs == [(e.hpwl_cost, e.congestion_cost) for e in fresh.evaluations]
        assert costs != [(e.hpwl_cost, e.congestion_cost) for e in first.evaluations]
