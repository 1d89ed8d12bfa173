"""Determinism and caching guarantees of the parallel V-P&R engine.

The sweep's contract: ``jobs`` may only change wall-clock, never
results.  These tests pin that down bitwise on a real benchmark, plus
the sub-netlist cache's equivalence to fresh induction.
"""

import os

import numpy as np
import pytest

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.vpr import (
    VPRConfig,
    VPRFramework,
    VPRShapeSelector,
    extract_subnetlist,
)
from repro.core.shapes import uniform_shape
from repro.db.database import DesignDatabase
from repro.designs import load_benchmark


@pytest.fixture(scope="module")
def jpeg_clusters():
    design = load_benchmark("jpeg", use_cache=False)
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=200)
    )
    return design, clustering.members()


def _select(design, members, jobs, chunk_size=None):
    config = VPRConfig(
        min_cluster_instances=100,
        max_vpr_clusters=3,
        placer_iterations=3,
        jobs=jobs,
        chunk_size=chunk_size,
    )
    return config, VPRShapeSelector(config).select(design, members)


class TestParallelDeterminism:
    def test_jobs_do_not_change_selection(self, jpeg_clusters):
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = jpeg_clusters
        config, serial = _select(design, members, jobs=1)
        _config, parallel = _select(design, members, jobs=4)

        assert serial.shapes == parallel.shapes
        assert len(serial.sweeps) == len(parallel.sweeps) > 0
        for s_sweep, p_sweep in zip(serial.sweeps, parallel.sweeps):
            assert s_sweep.cluster_id == p_sweep.cluster_id
            assert s_sweep.best == p_sweep.best
            for s_eval, p_eval in zip(s_sweep.evaluations, p_sweep.evaluations):
                assert s_eval.candidate == p_eval.candidate
                # Byte-identical costs, not approx: parallel workers run
                # the same code path and the placer re-seeds per run.
                assert s_eval.hpwl_cost == p_eval.hpwl_cost
                assert s_eval.congestion_cost == p_eval.congestion_cost

    @pytest.mark.parametrize("chunk_size", [1, 7, 1000])
    def test_chunk_size_does_not_change_selection(
        self, jpeg_clusters, chunk_size
    ):
        """Chunking is a scheduling knob only: one item per task, odd
        chunks that straddle cluster boundaries, and one giant chunk all
        select byte-identical shapes with byte-identical costs."""
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = jpeg_clusters
        _config, serial = _select(design, members, jobs=1)
        _config, chunked = _select(
            design, members, jobs=2, chunk_size=chunk_size
        )
        assert serial.shapes == chunked.shapes
        for s_sweep, p_sweep in zip(serial.sweeps, chunked.sweeps):
            assert s_sweep.best == p_sweep.best
            for s_eval, p_eval in zip(s_sweep.evaluations, p_sweep.evaluations):
                assert s_eval.hpwl_cost == p_eval.hpwl_cost
                assert s_eval.congestion_cost == p_eval.congestion_cost

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            VPRConfig(chunk_size=0)

    def test_parallel_sweep_warm_cache_identical(self, jpeg_clusters):
        """A second sweep in the same process must not change results:
        nothing the router or placer keeps between runs is stateful."""
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        design, members = jpeg_clusters
        _config, first = _select(design, members, jobs=2)
        _config, second = _select(design, members, jobs=2)
        assert first.shapes == second.shapes
        for a, b in zip(first.sweeps, second.sweeps):
            for ea, eb in zip(a.evaluations, b.evaluations):
                assert ea.hpwl_cost == eb.hpwl_cost
                assert ea.congestion_cost == eb.congestion_cost


class TestSubnetlistCache:
    def test_induce_hits_cache(self, jpeg_clusters):
        design, members = jpeg_clusters
        largest = max(members, key=len)
        framework = VPRFramework(VPRConfig())
        sub1, area1 = framework.induce(design, largest)
        sub2, area2 = framework.induce(design, largest)
        assert sub1 is sub2
        assert area1 == area2

    def test_cached_sub_equals_fresh_extraction(self, jpeg_clusters):
        design, members = jpeg_clusters
        largest = max(members, key=len)
        framework = VPRFramework(VPRConfig())
        cached, cached_area = framework.induce(design, largest)
        fresh = extract_subnetlist(design, largest)
        fresh_area = sum(design.instances[i].area for i in largest)

        assert cached_area == fresh_area
        assert cached.num_instances == fresh.num_instances
        assert cached.num_nets == fresh.num_nets
        assert cached.port_names == fresh.port_names
        assert cached.inst_names == fresh.inst_names
        assert cached.master_names == fresh.master_names
        assert np.array_equal(cached.inst_master, fresh.inst_master)
        assert cached.net_names == fresh.net_names
        assert np.array_equal(cached.net_degree, fresh.net_degree)

    def test_cached_evaluation_matches_fresh(self, jpeg_clusters):
        """Evaluating through the cache (shared PlacementProblem and
        scoring arrays) must equal a from-scratch framework bitwise."""
        design, members = jpeg_clusters
        largest = max(members, key=len)
        config = VPRConfig(placer_iterations=3)
        shared = VPRFramework(config)
        sub, area = shared.induce(design, largest)
        candidates = [uniform_shape(), config.candidates[0]]
        # Twice through the same framework: second pass reuses the
        # cached PlacementProblem and scoring arrays.
        first = [shared.evaluate_candidate(sub, area, c) for c in candidates]
        second = [shared.evaluate_candidate(sub, area, c) for c in candidates]
        for a, b in zip(first, second):
            assert a.hpwl_cost == b.hpwl_cost
            assert a.congestion_cost == b.congestion_cost
