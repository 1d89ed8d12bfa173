"""Flow-internal unit tests: criticality multipliers, evaluation,
post-place metrics."""

import numpy as np
import pytest

from repro.core.flow import _criticality_multipliers, evaluate_placed_design
from repro.core.ppa_clustering import ClusteringResult
from repro.db.database import DesignDatabase
from repro.place import GlobalPlacer, PlacementProblem


class TestCriticalityMultipliers:
    def test_mean_score_maps_to_one(self, small_design):
        db = DesignDatabase(small_design)
        hg = db.hypergraph
        scores = np.ones(hg.num_edges)
        multipliers = _criticality_multipliers(db, scores, cap=4.0)
        assert all(v == pytest.approx(1.0) for v in multipliers.values())

    def test_cap_enforced(self, small_design):
        db = DesignDatabase(small_design)
        hg = db.hypergraph
        scores = np.ones(hg.num_edges)
        scores[0] = 1e6
        multipliers = _criticality_multipliers(db, scores, cap=4.0)
        assert max(multipliers.values()) <= 4.0

    def test_floor_at_one(self, small_design):
        """Sub-average edges keep weight 1 (criticality only boosts)."""
        db = DesignDatabase(small_design)
        hg = db.hypergraph
        rng = np.random.default_rng(0)
        scores = rng.uniform(0.1, 10.0, hg.num_edges)
        multipliers = _criticality_multipliers(db, scores, cap=4.0)
        assert min(multipliers.values()) >= 1.0

    def test_keys_are_net_indices(self, small_design):
        db = DesignDatabase(small_design)
        hg = db.hypergraph
        multipliers = _criticality_multipliers(
            db, np.ones(hg.num_edges), cap=4.0
        )
        valid = set(int(i) for i in hg.edge_net_indices if i >= 0)
        assert set(multipliers) == valid


class TestMembersOf:
    def test_partition(self):
        members = ClusteringResult(np.array([0, 1, 0, 2, 1])).members()
        assert members == [[0, 2], [1, 4], [3]]

    def test_empty(self):
        assert ClusteringResult(np.zeros(0, dtype=np.int64)).members() == []


class TestEvaluatePlacedDesign:
    def test_full_metric_record(self, small_design_fresh):
        design = small_design_fresh
        GlobalPlacer(PlacementProblem(design)).run()
        metrics = evaluate_placed_design(design, {"place": 1.5})
        assert metrics.hpwl > 0
        assert metrics.rwl > 0
        assert metrics.power > 0
        assert metrics.tns <= 0
        assert metrics.runtimes["place"] == 1.5
        for stage in ("cts", "route", "sta_eval"):
            assert stage in metrics.runtimes

    def test_rwl_includes_clock_tree(self, small_design_fresh):
        """Routed WL includes the CTS wirelength (a few percent)."""
        from repro.route import GlobalRouter, synthesize_clock_tree

        design = small_design_fresh
        GlobalPlacer(PlacementProblem(design)).run()
        signal_only = GlobalRouter(design).run().routed_wirelength
        cts = synthesize_clock_tree(design)
        metrics = evaluate_placed_design(design)
        assert metrics.rwl == pytest.approx(
            signal_only + cts.wirelength, rel=0.01
        )

    def test_deterministic(self, small_design_fresh):
        design = small_design_fresh
        GlobalPlacer(PlacementProblem(design)).run()
        a = evaluate_placed_design(design)
        b = evaluate_placed_design(design)
        assert a.rwl == pytest.approx(b.rwl)
        assert a.tns == pytest.approx(b.tns)
        assert a.power == pytest.approx(b.power)


    def test_persistent_timing_matches_fresh(self, tmp_path):
        """An ECO session's post-route QoR == a fresh evaluation of the
        placed design it leaves, bit for bit: after a resize-only
        script, then after an add script, which recompiles the timing
        graph exactly once."""
        from repro import perf
        from repro.core.flow import ClusteredPlacementFlow, FlowConfig
        from repro.core.ppa_clustering import PPAClusteringConfig
        from repro.core.shapes import default_candidate_grid
        from repro.core.vpr import VPRConfig
        from repro.designs import DesignSpec, generate_design
        from repro.eco import EcoSession, parse_edits

        config = FlowConfig(
            clustering_config=PPAClusteringConfig(target_cluster_size=100),
            vpr_config=VPRConfig(
                min_cluster_instances=60,
                max_vpr_clusters=2,
                placer_iterations=2,
                candidates=default_candidate_grid()[:4],
            ),
            run_routing=True,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        spec = DesignSpec(
            "ecosta", 300, clock_period=0.7, logic_depth=8,
            hierarchy_depth=2, hierarchy_branching=3, seed=3,
        )
        ClusteredPlacementFlow(config).run(generate_design(spec))
        session = EcoSession(str(tmp_path / "ckpt"))
        design = session.design
        inst = next(
            i for i in design.instances if i.master.name == "NAND2_X1" and not i.fixed
        )
        driven = next(n for n in design.nets if n.driver and not n.is_clock)
        scripts = (
            [{"kind": "resize", "instance": inst.name, "master": "NAND2_X2"}],
            [
                {
                    "kind": "add",
                    "instance": "u_eco_buf",
                    "master": "BUF_X1",
                    "connections": {"A": driven.name, "Y": "n_eco_buf"},
                }
            ],
        )
        perf.enable()
        try:
            for script in scripts:
                perf.reset()
                kept = session.apply(parse_edits(script)).metrics
                recompiled = perf.counter_value("sta.graph.recompiled")
                fresh = evaluate_placed_design(design)
                for name in ("wns", "tns", "hold_wns", "hold_tns", "power", "rwl"):
                    assert getattr(kept, name) == getattr(fresh, name), (script, name)
                assert perf.counter_value("sta.graph.recompiled") == recompiled
            assert recompiled == 1
        finally:
            perf.disable()
            perf.reset()

    def test_no_routing_stops_at_hpwl(self, small_design_fresh):
        design = small_design_fresh
        GlobalPlacer(PlacementProblem(design)).run()
        metrics = evaluate_placed_design(design, {"place": 1.5}, run_routing=False)
        assert metrics.hpwl > 0 and metrics.rwl is None
        assert metrics.runtimes == {"place": 1.5}


class TestFlowArtifacts:
    def test_artifacts_written(self, small_design_fresh, tmp_path):
        from repro.core import ClusteredPlacementFlow, FlowConfig
        from repro.netlist.def_format import parse_def
        from repro.netlist.lef import parse_lef

        flow = ClusteredPlacementFlow(
            FlowConfig(run_routing=False, artifacts_dir=str(tmp_path))
        )
        result = flow.run(small_design_fresh)
        lef_path = tmp_path / "small_clusters.lef"
        seed_path = tmp_path / "small_seed.def"
        placed_path = tmp_path / "small_placed.def"
        assert lef_path.exists() and seed_path.exists() and placed_path.exists()
        macros = parse_lef(lef_path.read_text())
        assert len(macros) == result.num_clusters
        placed = parse_def(placed_path.read_text())
        assert len(placed.components) == small_design_fresh.num_instances


class TestQorReporting:
    def test_dict_and_json(self, small_design_fresh, tmp_path):
        import json

        from repro.core import ClusteredPlacementFlow, FlowConfig, write_qor_json
        from repro.core.reporting import flow_result_to_dict

        result = ClusteredPlacementFlow(FlowConfig()).run(small_design_fresh)
        data = flow_result_to_dict(result, small_design_fresh)
        assert data["metrics"]["tns_ns"] <= 0
        assert data["design"]["instances"] == small_design_fresh.num_instances
        assert data["clustering"]["num_clusters"] == result.num_clusters
        assert "shapes" in data["shape_selection"]
        assert "hierarchy_clustering" in data

        path = tmp_path / "qor.json"
        write_qor_json(str(path), result, small_design_fresh)
        loaded = json.loads(path.read_text())
        assert loaded["metrics"]["hpwl_um"] == pytest.approx(
            result.metrics.hpwl
        )

    def test_cli_report_flag(self, tmp_path):
        import json

        from repro.cli import main

        path = tmp_path / "r.json"
        code = main(
            [
                "flow",
                "--benchmark",
                "aes",
                "--no-routing",
                "--report",
                str(path),
            ]
        )
        assert code == 0
        assert json.loads(path.read_text())["design"]["name"] == "aes"


class TestFlowSweepWidth:
    """``FlowConfig.jobs`` sets the width of the flow's own sweep and
    never writes into a config the caller passed."""

    class _Swept(Exception):
        pass

    def _width(self, flow_config, design, monkeypatch):
        """The ``jobs`` the flow's sweep ran at (the sweep is cut short
        right there)."""
        from repro.core.flow import ClusteredPlacementFlow
        from repro.core.vpr import VPRFramework

        widths = []

        def record(framework, *_args):
            widths.append(framework.config.jobs)
            raise self._Swept

        monkeypatch.setattr(VPRFramework, "sweep_clusters", record)
        with pytest.raises(self._Swept):
            ClusteredPlacementFlow(flow_config).run(design)
        return widths[0]

    def test_shared_config_is_not_written(
        self, small_design_fresh, monkeypatch
    ):
        from repro.core.flow import FlowConfig
        from repro.core.vpr import VPRConfig

        shared = VPRConfig()
        wide = FlowConfig(jobs=4, vpr_config=shared)
        narrow = FlowConfig(vpr_config=shared)
        assert shared.jobs == 1
        assert self._width(narrow, small_design_fresh, monkeypatch) == 1
        assert self._width(wide, small_design_fresh, monkeypatch) == 4
        assert shared.jobs == 1

    def test_flow_jobs_wins_over_vpr_config(
        self, small_design_fresh, monkeypatch
    ):
        from repro.core.flow import FlowConfig
        from repro.core.vpr import VPRConfig

        passed = VPRConfig(jobs=1)
        config = FlowConfig(jobs=2, vpr_config=passed)
        assert self._width(config, small_design_fresh, monkeypatch) == 2
        assert passed.jobs == 1

    def test_flow_jobs_reaches_a_selectors_framework(
        self, small_design_fresh, monkeypatch
    ):
        from repro.core.flow import FlowConfig
        from repro.core.vpr import VPRConfig, VPRShapeSelector

        own = VPRConfig()
        selector = VPRShapeSelector(own)
        config = FlowConfig(jobs=3, shape_selector=selector)
        assert self._width(config, small_design_fresh, monkeypatch) == 3
        assert selector.framework.config is own and own.jobs == 1
