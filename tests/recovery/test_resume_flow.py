"""Flow-level checkpoint/resume: interrupted runs finish bit-identical.

The tentpole contract: kill a checkpointed run at an arbitrary unit of
work, resume it, and the final shapes and QoR are byte-for-byte what an
uninterrupted run produces — serially and in parallel.
"""

import dataclasses
import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.flow import ClusteredPlacementFlow, FlowConfig
from repro.core.ppa_clustering import PPAClusteringConfig
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig
from repro.designs import DesignSpec, generate_design
from repro.recovery import CheckpointError, faults
from repro.recovery.checkpoint import STAGES, CheckpointStore
from repro.recovery.faults import ABORT_EXIT_CODE, FaultInjected


def _fresh_design():
    return generate_design(
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


def _flow_config(checkpoint_dir=None, resume=False, jobs=1) -> FlowConfig:
    return FlowConfig(
        clustering_config=PPAClusteringConfig(target_cluster_size=120),
        vpr_config=VPRConfig(
            min_cluster_instances=60,
            max_vpr_clusters=2,
            placer_iterations=2,
            candidates=default_candidate_grid()[:6],
            jobs=jobs,
        ),
        run_routing=False,
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
        resume=resume,
    )


def _run(config) -> "FlowResult":
    return ClusteredPlacementFlow(config).run(_fresh_design())


def _assert_identical(a, b):
    assert a.selection.shapes == b.selection.shapes
    assert a.metrics.hpwl == b.metrics.hpwl
    assert a.metrics.wns == b.metrics.wns
    assert a.num_clusters == b.num_clusters


class TestResumeBitIdentity:
    def test_config_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            FlowConfig(resume=True)

    def test_serial_interrupt_and_resume(self, tmp_path):
        baseline = _run(_flow_config())
        assert baseline.selection.sweeps, "fixture must sweep >= 1 cluster"

        # Die the instant the 5th V-P&R item lands on disk.
        faults.configure("raise:vpr.item.saved:#5")
        with pytest.raises(FaultInjected):
            _run(_flow_config(checkpoint_dir=tmp_path / "ckpt"))
        faults.reset()
        items = list((tmp_path / "ckpt" / "items").glob("*.json"))
        assert len(items) == 5

        resumed = _run(
            _flow_config(checkpoint_dir=tmp_path / "ckpt", resume=True)
        )
        _assert_identical(resumed, baseline)

        # Resuming a *finished* checkpoint serves every stage from disk
        # and still reproduces the result.
        again = _run(
            _flow_config(checkpoint_dir=tmp_path / "ckpt", resume=True)
        )
        _assert_identical(again, baseline)

    def test_resume_owes_nothing_to_the_global_generators(self, tmp_path):
        """No stage draws from ``random`` / ``numpy.random``: scrambling
        both between abort and resume changes nothing, and the RNG
        snapshots older builds left in a checkpoint are ignored."""
        baseline = _run(_flow_config())

        faults.configure("raise:vpr.item.saved:#3")
        with pytest.raises(FaultInjected):
            _run(_flow_config(checkpoint_dir=tmp_path / "ckpt"))
        faults.reset()
        for stage in STAGES:
            (tmp_path / "ckpt" / f"rng_{stage}.pkl").write_bytes(b"\x00\x01")

        saved = random.getstate(), np.random.get_state()
        try:
            random.seed(os.urandom(16))
            np.random.seed(int.from_bytes(os.urandom(4), "little"))
            resumed = _run(
                _flow_config(checkpoint_dir=tmp_path / "ckpt", resume=True)
            )
        finally:
            random.setstate(saved[0])
            np.random.set_state(saved[1])
        _assert_identical(resumed, baseline)
        assert dataclasses.replace(
            resumed.metrics, runtimes={}
        ) == dataclasses.replace(baseline.metrics, runtimes={})

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork unavailable")
    def test_old_layout_items_are_ignored_on_resume(self, tmp_path):
        """``vpr_items/c{C}_k{K}.json`` records, as older builds wrote
        them, are neither served nor a reason to refuse the directory —
        torn ones included."""
        baseline = _run(_flow_config())
        ckpt = tmp_path / "ckpt"

        def crash():
            faults.configure("abort:vpr.item.saved:#5")
            _run(_flow_config(checkpoint_dir=ckpt))

        child = multiprocessing.get_context("fork").Process(target=crash)
        child.start()
        child.join(timeout=300)
        assert child.exitcode == ABORT_EXIT_CODE
        assert len(list((ckpt / "items").glob("*.json"))) == 5

        # Costs that would move every cluster off its shape, were they
        # ever served.
        old = ckpt / "vpr_items"
        old.mkdir()
        grid = default_candidate_grid()[:6]
        for sweep in baseline.selection.sweeps:
            decoy = (grid.index(sweep.best) + 1) % len(grid)
            for k, candidate in enumerate(grid):
                record = {
                    "schema": "repro.recovery/1",
                    "cluster": sweep.cluster_id,
                    "candidate": k,
                    "ar": candidate.aspect_ratio,
                    "util": candidate.utilization,
                    "hpwl_cost": 1e-9 if k == decoy else 1e9,
                    "congestion_cost": 0.0,
                    "seconds": 0.0,
                }
                path = old / f"c{sweep.cluster_id}_k{k}.json"
                path.write_text(json.dumps(record))
        (old / f"c{baseline.selection.sweeps[0].cluster_id}_k1.json").write_text(
            "{torn"
        )

        resumed = _run(_flow_config(checkpoint_dir=ckpt, resume=True))
        _assert_identical(resumed, baseline)
        assert dataclasses.replace(
            resumed.metrics, runtimes={}
        ) == dataclasses.replace(baseline.metrics, runtimes={})
        # The ECO entry still opens the directory.
        recorded = CheckpointStore(str(ckpt)).open_existing()
        assert recorded["design"] == "small" and recorded["seed"] == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork unavailable")
    def test_parallel_interrupt_and_resume(self, tmp_path):
        baseline = _run(_flow_config(jobs=2))

        faults.configure("raise:vpr.item.saved:#4")
        with pytest.raises(FaultInjected):
            _run(_flow_config(checkpoint_dir=tmp_path / "ckpt", jobs=2))
        faults.reset()

        resumed = _run(
            _flow_config(checkpoint_dir=tmp_path / "ckpt", resume=True, jobs=2)
        )
        _assert_identical(resumed, baseline)
        # And a serial resume of a parallel run's checkpoint matches too.
        serial_resumed = _run(
            _flow_config(checkpoint_dir=tmp_path / "ckpt", resume=True)
        )
        _assert_identical(serial_resumed, baseline)

    def test_resume_skips_reclustering(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = ClusteredPlacementFlow._run_clustering

        def counted(self, db):
            calls["n"] += 1
            return original(self, db)

        monkeypatch.setattr(ClusteredPlacementFlow, "_run_clustering", counted)

        faults.configure("raise:flow.vpr")
        with pytest.raises(FaultInjected):
            _run(_flow_config(checkpoint_dir=tmp_path / "ckpt"))
        faults.reset()
        assert calls["n"] == 1

        _run(_flow_config(checkpoint_dir=tmp_path / "ckpt", resume=True))
        assert calls["n"] == 1, "resume must serve clustering from disk"


class TestResumeValidation:
    def test_corrupt_checkpoint_is_actionable(self, tmp_path):
        faults.configure("raise:flow.vpr")
        with pytest.raises(FaultInjected):
            _run(_flow_config(checkpoint_dir=tmp_path / "ckpt"))
        faults.reset()

        path = tmp_path / "ckpt" / "stage_clustering.pkl"
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointError) as excinfo:
            _run(_flow_config(checkpoint_dir=tmp_path / "ckpt", resume=True))
        message = str(excinfo.value)
        assert "stage_clustering.pkl" in message
        assert "delete" in message

    @pytest.mark.parametrize(
        "knob, value, recomputed",
        [
            ("run_routing", True, ["metrics"]),
            ("tool", "innovus", ["seeded", "metrics"]),
            ("seed", 5, ["clustering", "vpr", "vpr_digests", "seeded", "metrics"]),
        ],
        ids=["run_routing", "tool", "seed"],
    )
    def test_changed_knob_recomputes_downstream(
        self, tmp_path, monkeypatch, knob, value, recomputed
    ):
        """A resume under a changed knob is not refused: the knob
        changes its own stage's key and every downstream key, so
        exactly those stages run again, and the result is a fresh run
        under the new configuration, bit for bit."""
        ckpt = tmp_path / "ckpt"
        _run(_flow_config(checkpoint_dir=ckpt))

        changed = _flow_config(checkpoint_dir=ckpt, resume=True)
        setattr(changed, knob, value)
        computed = []
        check = faults.check

        def spy(site, **kwargs):
            if site.startswith("flow."):
                computed.append(site[len("flow."):])
            return check(site, **kwargs)

        monkeypatch.setattr(faults, "check", spy)
        resumed = _run(changed)
        monkeypatch.setattr(faults, "check", check)
        assert computed == recomputed

        fresh = _flow_config()
        setattr(fresh, knob, value)
        baseline = _run(fresh)
        _assert_identical(resumed, baseline)
        assert dataclasses.replace(
            resumed.metrics, runtimes={}
        ) == dataclasses.replace(baseline.metrics, runtimes={})
        # The manifest now describes the resumed run.
        recorded = CheckpointStore(str(ckpt)).open_existing()
        assert recorded[knob] == value

    def test_resume_on_a_resized_design_recomputes_every_stage(self, tmp_path):
        """Same name, same instance and net counts, 40 gates resized:
        the input key hashes the design's content, so nothing of the
        first design's checkpoint is served (an earlier build served
        its QoR verbatim)."""
        from repro import perf
        from repro.eco import apply_edits, parse_edits

        def design(resized: bool):
            d = generate_design(DesignSpec("resized", 600, clock_period=0.7, seed=9))
            if not resized:
                return d
            edits = []
            for inst in d.instances:
                base, _, strength = inst.master.name.rpartition("_X")
                other = f"{base}_X{'2' if strength == '1' else '1'}"
                if base and other in d.masters and len(edits) < 40:
                    edits.append(
                        {"kind": "resize", "instance": inst.name, "master": other}
                    )
            assert len(edits) == 40
            apply_edits(d, parse_edits(edits))
            return d

        ckpt = tmp_path / "ckpt"
        ClusteredPlacementFlow(_flow_config(checkpoint_dir=ckpt)).run(design(False))
        perf.enable()
        perf.reset()
        try:
            resumed = ClusteredPlacementFlow(
                _flow_config(checkpoint_dir=ckpt, resume=True)
            ).run(design(True))
            reused = perf.counter_value("recovery.stage.reused")
        finally:
            perf.disable()
        assert reused == 0
        fresh = ClusteredPlacementFlow(_flow_config()).run(design(True))
        assert dataclasses.replace(
            resumed.metrics, runtimes={}
        ) == dataclasses.replace(fresh.metrics, runtimes={})
        assert resumed.selection.shapes == fresh.selection.shapes

    def test_default_manifest_config_is_the_recorded_one(self, tmp_path):
        """Golden of the manifest's config block for the default flow:
        what ``EcoSession`` reads back (the V-P&R fields, run_routing,
        seed, selector) and the design the run saw."""
        design = _fresh_design()
        flow = ClusteredPlacementFlow(
            FlowConfig(run_routing=False, checkpoint_dir=str(tmp_path / "ckpt"))
        )
        flow.run(design)
        manifest = json.loads((tmp_path / "ckpt" / "MANIFEST.json").read_text())
        assert manifest["schema"] == "repro.recovery/2"
        assert [stage for stage, _ in manifest["stages"]] == list(STAGES)
        assert manifest["config"] == {
            "design": "small",
            "instances": design.num_instances,
            "nets": design.num_nets,
            "seed": 0,
            "tool": "openroad",
            "clustering": "ppa",
            "selector": "vpr",
            "run_routing": False,
            "power_emphasis": 0.0,
            "delta": 0.01,
            "top_x_percent": 10.0,
            "min_cluster_instances": 200,
            "max_vpr_clusters": 12,
            "placer_iterations": 6,
            "vpr_seed": 0,
            "candidates": [
                [ar, util]
                for ar in (0.75, 1.0, 1.25, 1.5, 1.75)
                for util in (0.75, 0.8, 0.85, 0.9)
            ],
        }
        recorded = CheckpointStore(str(tmp_path / "ckpt")).open_existing()
        assert VPRConfig.from_result_fingerprint(recorded) == VPRConfig()
        custom = _flow_config().vpr_config
        recorded = json.loads(json.dumps(custom.result_fingerprint()))
        rebuilt = VPRConfig.from_result_fingerprint(recorded)
        assert rebuilt.result_fingerprint() == custom.result_fingerprint()


class TestCheckpointTelemetry:
    def test_saved_and_resumed_events(self, tmp_path):
        from repro import telemetry

        faults.configure("raise:flow.seeded")
        with pytest.raises(FaultInjected):
            _run(_flow_config(checkpoint_dir=tmp_path / "ckpt"))
        faults.reset()

        telemetry.enable(str(tmp_path / "tele"))
        try:
            _run(_flow_config(checkpoint_dir=tmp_path / "ckpt", resume=True))
        finally:
            telemetry.disable()
        events = (tmp_path / "tele" / "events.jsonl").read_text()
        assert "checkpoint.resumed" in events
        assert "checkpoint.saved" in events


class TestCLIResume:
    """The operator-facing path: crash a `repro flow` subprocess with
    REPRO_FAULTS, resume it, and match the uninterrupted QoR."""

    def _cli(self, *args, fault=None):
        env = dict(os.environ)
        repo = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop("REPRO_FAULTS", None)
        if fault:
            env["REPRO_FAULTS"] = fault
        return subprocess.run(
            [sys.executable, "-m", "repro", "flow", "--benchmark", "aes",
             "--no-routing", "--seed", "3", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    @staticmethod
    def _hpwl_line(stdout: str) -> str:
        (line,) = [l for l in stdout.splitlines() if l.startswith("HPWL")]
        return line

    def test_abort_and_resume_matches_uninterrupted(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        baseline = self._cli()
        assert baseline.returncode == 0, baseline.stderr

        crashed = self._cli(
            "--checkpoint", ckpt, fault="abort:vpr.item.saved:#6"
        )
        assert crashed.returncode == ABORT_EXIT_CODE
        assert len(list((tmp_path / "ckpt" / "items").glob("*.json"))) == 6

        resumed = self._cli("--checkpoint", ckpt, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert self._hpwl_line(resumed.stdout) == self._hpwl_line(
            baseline.stdout
        )

    def test_resume_without_checkpoint_flag_errors(self):
        result = self._cli("--resume")
        assert result.returncode != 0
        assert "--checkpoint" in result.stderr
