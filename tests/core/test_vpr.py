"""V-P&R framework tests (shapes, sub-netlist extraction, selectors)."""

import dataclasses
import os

import numpy as np
import pytest

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import (
    ShapeCandidate,
    default_candidate_grid,
    uniform_shape,
)
from repro.core.vpr import (
    MLShapeSelector,
    RandomShapeSelector,
    UniformShapeSelector,
    VPRConfig,
    VPRFramework,
    VPRShapeSelector,
    extract_subnetlist,
)
from repro.db.database import DesignDatabase
from repro.netlist.design import PinDirection


class TestShapeCandidates:
    def test_paper_grid_is_20(self):
        grid = default_candidate_grid()
        assert len(grid) == 20
        ars = {c.aspect_ratio for c in grid}
        utils = {c.utilization for c in grid}
        assert ars == {0.75, 1.0, 1.25, 1.5, 1.75}
        assert utils == {0.75, 0.80, 0.85, 0.90}

    def test_uniform_shape(self):
        shape = uniform_shape()
        assert shape.aspect_ratio == 1.0
        assert shape.utilization == 0.9

    def test_dimensions(self):
        shape = ShapeCandidate(aspect_ratio=2.0, utilization=0.5)
        w, h = shape.dimensions(100.0)
        assert w * h == pytest.approx(200.0)
        assert h / w == pytest.approx(2.0)


class TestConfigKnobs:
    def test_knob_count_only_shrinks(self):
        """Ratchet: ``VPRConfig``'s options, pinned by name.  A new
        sweep option edits this list and says why; a removed one
        shortens it."""
        assert [f.name for f in dataclasses.fields(VPRConfig)] == [
            "delta", "top_x_percent", "min_cluster_instances",
            "max_vpr_clusters", "candidates", "placer_iterations", "jobs",
            "chunk_size", "seed", "item_timeout", "fleet_listen",
        ]


@pytest.fixture(scope="module")
def cluster_context():
    from repro.designs import DesignSpec, generate_design

    design = generate_design(
        DesignSpec("v", 600, clock_period=0.8, logic_depth=8, seed=23)
    )
    db = DesignDatabase(design)
    result = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=150)
    )
    members = result.members()
    largest = max(members, key=len)
    return design, members, largest


class TestSubnetlistExtraction:
    def test_instances_copied(self, cluster_context):
        design, _members, largest = cluster_context
        sub = extract_subnetlist(design, largest)
        assert sub.num_instances == len(largest)
        for idx in largest:
            assert sub.has_instance(design.instances[idx].name)

    def test_boundary_ports_created(self, cluster_context):
        design, _members, largest = cluster_context
        sub = extract_subnetlist(design, largest)
        in_ports = [
            p for p in sub.ports.values() if p.direction is PinDirection.INPUT
        ]
        out_ports = [
            p for p in sub.ports.values() if p.direction is PinDirection.OUTPUT
        ]
        assert in_ports, "external drivers must become input ports"
        assert out_ports, "external sinks must become output ports"

    def test_subnetlist_valid(self, cluster_context):
        design, _members, largest = cluster_context
        sub = extract_subnetlist(design, largest)
        assert sub.validate() == []

    def test_internal_nets_preserved(self, cluster_context):
        design, _members, largest = cluster_context
        member_set = set(largest)
        sub = extract_subnetlist(design, largest)
        internal = 0
        for net in design.nets:
            if net.is_clock:
                continue
            touched = {i.index for i in net.instances()}
            if touched and touched <= member_set and len(touched) >= 2:
                internal += 1
                assert sub.net(net.name).degree >= 2
        assert internal > 0

    def test_clock_nets_excluded(self, cluster_context):
        design, _members, largest = cluster_context
        sub = extract_subnetlist(design, largest)
        assert all(not n.is_clock for n in sub.nets)


class TestVprEvaluation:
    def test_candidate_costs_positive(self, cluster_context):
        design, _members, largest = cluster_context
        config = VPRConfig(placer_iterations=4)
        framework = VPRFramework(config)
        sub = extract_subnetlist(design, largest)
        area = sum(design.instances[i].area for i in largest)
        ev = framework.evaluate_candidate(sub, area, uniform_shape())
        assert ev.hpwl_cost > 0
        assert ev.congestion_cost >= 0
        assert ev.total(0.01) == pytest.approx(
            ev.hpwl_cost + 0.01 * ev.congestion_cost
        )

    def test_sweep_returns_all_candidates(self, cluster_context):
        design, _members, largest = cluster_context
        config = VPRConfig(placer_iterations=3)
        framework = VPRFramework(config)
        sweep = framework.sweep_cluster(design, largest, cluster_id=7)
        assert len(sweep.evaluations) == 20
        assert sweep.cluster_id == 7
        best_total = min(e.total(config.delta) for e in sweep.evaluations)
        chosen = [
            e
            for e in sweep.evaluations
            if e.candidate == sweep.best
        ][0]
        assert chosen.total(config.delta) == pytest.approx(best_total)

    def test_eligibility_threshold(self, cluster_context):
        _design, members, _largest = cluster_context
        framework = VPRFramework(VPRConfig(min_cluster_instances=100))
        eligible = framework.config.eligible_clusters(members)
        for c in eligible:
            assert len(members[c]) > 100
        # Largest first.
        sizes = [len(members[c]) for c in eligible]
        assert sizes == sorted(sizes, reverse=True)


class TestSelectors:
    def test_uniform_selector(self, cluster_context):
        design, members, _l = cluster_context
        selection = UniformShapeSelector().select(design, members)
        assert len(selection.shapes) == len(members)
        assert all(s == uniform_shape() for s in selection.shapes.values())

    def test_random_selector_deterministic(self, cluster_context):
        design, members, _l = cluster_context
        a = RandomShapeSelector(seed=1).select(design, members)
        b = RandomShapeSelector(seed=1).select(design, members)
        assert a.shapes == b.shapes
        c = RandomShapeSelector(seed=2).select(design, members)
        assert c.shapes != a.shapes

    def test_vpr_selector_sweeps_eligible(self, cluster_context):
        design, members, _l = cluster_context
        config = VPRConfig(
            min_cluster_instances=100, max_vpr_clusters=2, placer_iterations=3
        )
        selection = VPRShapeSelector(config).select(design, members)
        assert len(selection.shapes) == len(members)
        assert len(selection.sweeps) <= 2
        assert selection.runtime > 0

    def test_vpr_selector_cap_recorded(self, cluster_context):
        design, members, _l = cluster_context
        config = VPRConfig(
            min_cluster_instances=50, max_vpr_clusters=1, placer_iterations=3
        )
        framework_all = VPRFramework(config)
        eligible = len(
            [c for c in range(len(members)) if len(members[c]) > 50]
        )
        selection = VPRShapeSelector(config).select(design, members)
        assert selection.skipped_clusters == max(0, eligible - 1)

    def test_ml_selector_uses_predictor(self, cluster_context):
        design, members, _l = cluster_context

        calls = []

        def predictor(sub, candidates):
            calls.append(len(candidates))
            # Prefer the 3rd candidate deterministically.
            costs = np.ones(len(candidates))
            costs[2] = 0.0
            return costs

        config = VPRConfig(min_cluster_instances=100, max_vpr_clusters=4)
        selection = MLShapeSelector(predictor, config).select(design, members)
        assert calls, "predictor must be invoked for eligible clusters"
        eligible = config.eligible_clusters(members)[:4]
        for c in eligible:
            assert selection.shapes[c] == config.candidates[2]

    def test_ml_selector_nonfinite_prediction_keeps_uniform(self, cluster_context):
        """A NaN among a cluster's predicted costs must not win
        the argmin: the cluster keeps the uniform shape, counted and
        evented; the other clusters are selected as usual."""
        from repro import perf, telemetry
        from repro.core.shapes import uniform_shape

        design, members, _l = cluster_context
        config = VPRConfig(min_cluster_instances=100, max_vpr_clusters=4)
        eligible = config.eligible_clusters(members)[:4]
        assert len(eligible) >= 2
        poison = {0: np.nan}

        def predictor(sub, candidates):
            costs = np.linspace(2.0, 1.0, len(candidates))
            bad = poison.get(predictor.calls)
            if bad is not None:
                costs[5] = bad
            predictor.calls += 1
            return costs

        predictor.calls = 0
        perf.enable()
        perf.reset()
        telemetry.enable()
        try:
            selection = MLShapeSelector(predictor, config).select(design, members)
            assert perf.counter_value("vpr.ml.cost_nonfinite") == 1
            events = telemetry.get_session().events.export()
        finally:
            perf.disable()
            telemetry.disable()
        flagged = [e for e in events if e["type"] == "vpr.ml.cost_nonfinite"]
        assert [(e["cluster"], e["candidates"]) for e in flagged] == [(eligible[0], 1)]
        selected = [e["cluster"] for e in events if e["type"] == "vpr.shape_selected"]
        assert selected == eligible[1:]
        assert selection.shapes[eligible[0]] == uniform_shape()
        for c in eligible[1:]:
            assert selection.shapes[c] == config.candidates[-1]


# ----------------------------------------------------------------------
# Lockstep candidate batching (see docs/performance.md)
# ----------------------------------------------------------------------
def _sweep_digest(selection) -> str:
    import hashlib
    import json

    payload = {
        "costs": [
            [
                sweep.cluster_id,
                [[repr(e.hpwl_cost), repr(e.congestion_cost)] for e in sweep.evaluations],
            ]
            for sweep in selection.sweeps
        ],
        "shapes": [
            [c, repr(s.aspect_ratio), repr(s.utilization)]
            for c, s in sorted(selection.shapes.items())
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestGoldenCosts:
    """(b) SHA-256 of the 100 (hpwl_cost, congestion_cost) pairs and the
    chosen shapes of a 5-cluster sweep, frozen at the commit *before*
    candidates were batched: batching the arithmetic must not move a
    bit of it."""

    GOLDEN = {
        "aes": "1163043a4f2b3a0d5baf1ca523cf0b4f065fa9d1d117a0ba33098f1df83c1fca",
        "ariane": "ac61f66a324e5bde5df63bd3ca6708451227498c251b5a67fdd6627cf9cac860",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_sweep_matches_pre_batching_digest(self, name):
        from repro.designs import load_benchmark

        design = load_benchmark(name)
        members = ppa_aware_clustering(
            DesignDatabase(design), PPAClusteringConfig()
        ).members()
        selection = VPRShapeSelector(
            VPRConfig(max_vpr_clusters=5, min_cluster_instances=100)
        ).select(design, members)
        assert sum(len(s.evaluations) for s in selection.sweeps) == 100
        assert _sweep_digest(selection) == self.GOLDEN[name]


class TestBatchedSweepEquivalence:
    """(c) however the grid is cut into batches — one per cluster
    (serial), per fleet chunk, or whatever a resumed run finds missing —
    the sweep is the same."""

    @staticmethod
    def _config(**kwargs):
        return VPRConfig(
            min_cluster_instances=100,
            max_vpr_clusters=2,
            placer_iterations=3,
            **kwargs,
        )

    def _select(self, cluster_context, checkpoint=None, **kwargs):
        design, members, _largest = cluster_context
        return VPRShapeSelector(
            self._config(**kwargs), checkpoint=checkpoint
        ).select(design, members)

    @pytest.fixture(scope="class")
    def serial(self, cluster_context):
        selection = self._select(cluster_context)
        assert len(selection.sweeps) == 2
        return _sweep_digest(selection)

    @pytest.mark.parametrize("chunk_size", [None, 1, 7])
    def test_pool_chunks_match_serial(self, cluster_context, serial, chunk_size):
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        selection = self._select(cluster_context, jobs=2, chunk_size=chunk_size)
        assert _sweep_digest(selection) == serial

    def test_resumed_mid_cluster_matches_serial(self, cluster_context, serial, tmp_path):
        from repro.recovery import CheckpointStore, faults
        from repro.recovery.faults import FaultInjected

        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.initialize({"test": "batched"})
        faults.configure("raise:vpr.item.saved:#27")
        try:
            with pytest.raises(FaultInjected):
                self._select(cluster_context, checkpoint=store)
        finally:
            faults.reset()
        saved = list((tmp_path / "ckpt" / "items").glob("*.json"))
        assert len(saved) == 27  # one cluster done, the second 7 items in
        resumed = self._select(cluster_context, checkpoint=store)
        assert _sweep_digest(resumed) == serial


GRID_20 = default_candidate_grid()


class TestNumericGuard:
    """A candidate whose B2B system or route goes non-finite fails
    alone, and its in-process re-run (a batch of one) decides."""

    def _poisoned(self, monkeypatch, row, full_batch_only=True):
        """Make the spreader hand candidate ``row`` one NaN anchor, in
        the first spreading round of every placement run (of a full
        20-shape batch only, unless told otherwise)."""
        from repro.place import placer

        real = placer.spreading_targets

        def poisoned(grid, x, y, areas, movable, strength=0.8, **kwargs):
            target_x, target_y = real(grid, x, y, areas, movable, strength, **kwargs)
            if len(target_x) == len(GRID_20) or not full_batch_only:
                target_x[row, np.nonzero(movable)[0][0]] = np.nan
            return target_x, target_y

        monkeypatch.setattr(placer, "spreading_targets", poisoned)

    def _counted_sweep(self, design, largest, *counters):
        """One 20-shape sweep with perf on; ``(sweep, counter values)``."""
        from repro import perf

        perf.enable()
        perf.reset()
        try:
            sweep = VPRFramework(VPRConfig(placer_iterations=3)).sweep_cluster(
                design, largest
            )
            return sweep, tuple(perf.counter_value(n) for n in counters)
        finally:
            perf.disable()
            perf.reset()

    def test_poisoned_candidate_fails_alone(self, cluster_context, monkeypatch):
        design, _members, largest = cluster_context
        clean = VPRFramework(VPRConfig(placer_iterations=3)).sweep_cluster(
            design, largest
        )

        self._poisoned(monkeypatch, row=4)
        sweep, (nonfinite, retry, terminal) = self._counted_sweep(
            design, largest,
            "b2b.cg_nonfinite", "vpr.item.retry", "vpr.item.terminal",
        )

        # It failed alone in the full batch; re-run alone, it recovers
        # the clean costs, and its 19 batch-mates are untouched.
        assert nonfinite >= 1 and (retry, terminal) == (1, 0)
        assert [(e.hpwl_cost, e.congestion_cost) for e in sweep.evaluations] == [
            (e.hpwl_cost, e.congestion_cost) for e in clean.evaluations
        ]
        assert sweep.best == clean.best

    def test_poisoned_candidate_raises_by_default(self, cluster_context, monkeypatch):
        from repro.core.vpr import VPRSweepError

        design, _members, largest = cluster_context
        self._poisoned(monkeypatch, row=0, full_batch_only=False)
        with pytest.raises(VPRSweepError, match="candidate 0 .*non-finite B2B solve"):
            VPRFramework(VPRConfig(placer_iterations=3)).sweep_cluster(
                design, largest
            )

    def _poisoned_route(self, monkeypatch, row):
        """Hand the router one NaN coordinate in candidate ``row`` of
        every full 20-shape batch, behind the placer's back (its result
        reports no error)."""
        from repro.place.placer import GlobalPlacer

        real = GlobalPlacer.run

        def poisoned(placer):
            results = real(placer)
            if placer.problem.x.ndim == 2 and len(placer.problem.x) == len(GRID_20):
                placer.problem.x[row, 0] = np.nan
            return results

        monkeypatch.setattr(GlobalPlacer, "run", poisoned)

    def test_poisoned_route_fails_alone(self, cluster_context, monkeypatch):
        """The routing half of the guard: a non-finite coordinate in one
        system of the stacked route."""
        design, _members, largest = cluster_context
        clean = VPRFramework(VPRConfig(placer_iterations=3)).sweep_cluster(
            design, largest
        )

        self._poisoned_route(monkeypatch, row=6)
        sweep, counts = self._counted_sweep(
            design, largest,
            "route.cost_nonfinite", "vpr.item.retry", "vpr.item.terminal",
            "vpr.candidates_evaluated",
        )
        # 19 scored in the batch, the 20th on its in-process re-run (a
        # batch of one: not poisoned here) with the clean costs.
        assert counts == (1, 1, 0, 20)
        assert [(e.hpwl_cost, e.congestion_cost) for e in sweep.evaluations] == [
            (e.hpwl_cost, e.congestion_cost) for e in clean.evaluations
        ]

    def test_maxiter_is_counted_and_evented(self):
        from repro import perf, telemetry
        from repro.place.b2b import b2b_edges, solve_axis

        pin_vertex = np.array([0, 1, 1, 2, 2, 3])
        offsets = np.array([0, 2, 4, 6])
        coords = np.array([[0.0, 3.0, 5.0, 10.0], [0.0, 1.0, 7.0, 10.0]])
        fixed = np.array([True, False, False, True])
        u, v, w = b2b_edges(pin_vertex, offsets, np.ones(3), coords)
        perf.enable()
        perf.reset()
        telemetry.enable()
        try:
            solve_axis(u, v, w, coords, fixed, cg_tol=0.0, cg_maxiter=1)
            cut_short = perf.counter_value("b2b.cg_nonconverged")
            assert 1 <= cut_short <= 2
            events = telemetry.get_session().events.export()
            assert [
                e["systems"] for e in events if e["type"] == "b2b.cg_nonconverged"
            ] == [cut_short]
        finally:
            perf.disable()
            telemetry.disable()
