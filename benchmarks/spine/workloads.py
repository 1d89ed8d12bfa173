"""The four workloads.

Each workload builds ``UNITS`` independent inputs from the run seed
(one *set-up unit* each — so set-up is timed several times per run and
reported as a median), then cycles its operations over them.  QoR is
always taken from a fixed part of the series, so it does not depend on
how many operations the host fits into the time budget.

Sizes are chosen so that one run (set-up, warm-up, ``--seconds`` of
timed operations, output checks) stays near 25 s on a 2-core host;
the README records what that costs in fidelity to the paper's sizes.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.spine import checks
from benchmarks.spine.editgen import EditScriptGenerator
from benchmarks.spine.harness import SRC, peak_rss_mb, speed_probe
from benchmarks.spine.trace import Tracer

from repro.core.flow import ClusteredPlacementFlow, FlowConfig
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import MLShapeSelector, VPRConfig
from repro.designs.generator import DesignSpec, generate_design
from repro.route.steiner import clear_rsmt_cache

GRID = default_candidate_grid()

#: Keys of ``PPAMetrics.runtimes`` a full flow fills, in flow order.
FLOW_STAGES = (
    "hier_clustering",
    "sta",
    "clustering",
    "vpr",
    "cluster_place",
    "seed",
    "incremental_place",
    "cts",
    "route",
    "sta_eval",
)
ECO_STAGES = {
    "eco.apply_edits_s": "eco_apply",
    "eco.recluster_s": "eco_recluster",
    "eco.vpr_s": "eco_vpr",
    "eco.place_s": "eco_place",
    "eco.metrics_s": "eco_metrics",
}


@dataclass
class Sample:
    """One operation: which input, how long, what went wrong, and the
    program's own stage clock readings for it."""

    group: int
    #: Wall-clock of the operation as measured.
    raw_s: float
    #: Host speed probe taken just before the operation.
    probe_s: float
    failures: List[str] = field(default_factory=list)
    stages: Dict[str, float] = field(default_factory=dict)
    traced: bool = False


@dataclass
class Qor:
    """QoR of one input, as the program reported it."""

    hpwl: float
    rwl: float
    power: float
    wns: float
    tns: float
    clock_period: float

    @classmethod
    def of(cls, metrics, clock_period: float) -> "Qor":
        return cls(
            hpwl=metrics.hpwl,
            rwl=metrics.rwl,
            power=metrics.power,
            wns=metrics.wns,
            tns=metrics.tns,
            clock_period=clock_period,
        )


def mean_qor(records: List[Qor]) -> Dict[str, float]:
    """Mean over the fixed input set; ``worst_path_ns`` is the clock
    period minus WNS — the same information as WNS, never zero."""
    n = len(records)
    return {
        "hpwl_um": sum(r.hpwl for r in records) / n,
        "rwl_um": sum(r.rwl for r in records) / n,
        "power_mw": sum(r.power for r in records) / n,
        "worst_path_ns": sum(r.clock_period - r.wns for r in records) / n,
        "wns_ns": sum(r.wns for r in records) / n,
        "tns_ns": sum(r.tns for r in records) / n,
    }


class Workload:
    """Common series driver; subclasses supply inputs and operations."""

    name = ""
    units = 1
    #: Timed operations before the time budget may end the series.
    min_ops = 1
    #: Length of the traced pass (half of it runs traced).
    trace_ops = 2

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.setup_detail: Dict[str, List[float]] = {}
        self.extra_failures: List[str] = []
        #: (instances, nets) of each generated input.
        self.sizes: List[Tuple[int, int]] = []
        #: Peak resident set after exactly ``min_ops`` timed operations
        #: (the heap ratchets up a little with every further one).
        self.peak_rss_mb: Optional[float] = None

    # -- hooks ---------------------------------------------------------
    def setup_unit(self, unit: int) -> None:
        raise NotImplementedError

    def operation(self, index: int, group: int, traced: bool) -> Sample:
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        """Post-series checks; returns the QoR record."""
        raise NotImplementedError

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer values the workload measures itself."""
        return {}

    def close(self) -> None:
        pass

    # -- helpers -------------------------------------------------------
    def note(self, key: str, seconds: float) -> None:
        self.setup_detail.setdefault(key, []).append(seconds)

    def group_of(self, index: int) -> int:
        return index % self.units

    def warmup(self) -> None:
        """One untimed operation: imports, allocator and caches settle."""
        sample = self.operation(-1, 0, traced=False)
        self.extra_failures += [f"warm-up: {f}" for f in sample.failures]

    def measure(self, seconds: float) -> Tuple[List[Sample], float]:
        """The timed series; returns the samples and the loop's wall.

        Untraced, the series runs for ``seconds`` (at least ``min_ops``
        operations).  Traced, it is ``trace_ops`` operations exactly —
        untraced / traced pairs on the same input — so per-operation
        counts do not depend on how fast the host is.
        """
        samples: List[Sample] = []
        start = time.perf_counter()
        index = 0
        while True:
            if self.tracer is not None:
                if index >= self.trace_ops:
                    break
                group, traced = self.group_of(index // 2), index % 2 == 1
            else:
                if index >= self.min_ops and time.perf_counter() - start >= seconds:
                    break
                group, traced = self.group_of(index), False
            samples.append(self.operation(index, group, traced))
            index += 1
            if index == self.min_ops:
                self.peak_rss_mb = peak_rss_mb()
        return samples, time.perf_counter() - start

    def timed(self, index: int, traced: bool, call):
        """Run ``call`` as one operation: collected heap, cold RSMT
        memo, a fresh host speed probe, optional tracing; returns
        ``(result, raw wall, probe)``."""
        clear_rsmt_cache()
        gc.collect()
        probe = speed_probe()
        tracing = self.tracer.installed(index) if traced else contextlib.nullcontext()
        with tracing:
            start = time.perf_counter()
            result = call()
            wall = time.perf_counter() - start
        return result, wall, probe

    def size_extras(self) -> Dict[str, float]:
        """Mean size of the generated inputs, as per-layer context."""
        return {
            "designs.instances": sum(s[0] for s in self.sizes) / len(self.sizes),
            "designs.nets": sum(s[1] for s in self.sizes) / len(self.sizes),
        }


def ariane_class(name: str, num_instances: int, seed: int) -> DesignSpec:
    """The repository's ariane statistics at a chosen size, with 16
    critical chains (4 in the original) so the worst path is the
    maximum over enough chains to be steady from seed to seed."""
    return DesignSpec(
        name=name,
        num_instances=num_instances,
        seq_fraction=0.16,
        logic_depth=32,
        critical_chains=16,
        hierarchy_depth=4,
        hierarchy_branching=4,
        clock_period=1.80,
        high_fanout_nets=4,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Full-flow workloads
# ----------------------------------------------------------------------
class FlowWorkload(Workload):
    """A cold clustered flow per operation on regenerated inputs."""

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, workdir, tracer)
        self.specs: List[DesignSpec] = []
        self.digests: Dict[int, str] = {}
        self.qor: Dict[int, Qor] = {}
        self.last_result = None

    def spec(self, unit: int) -> DesignSpec:
        raise NotImplementedError

    def flow_config(self, group: int) -> FlowConfig:
        raise NotImplementedError

    def check(self, design, result) -> List[str]:
        return checks.check_flow_result(design, result, GRID)

    def setup_unit(self, unit: int) -> None:
        spec = self.spec(unit)
        start = time.perf_counter()
        design = generate_design(spec)
        self.note("designs.generate_s", time.perf_counter() - start)
        self.sizes.append((design.num_instances, design.num_nets))
        self.specs.append(spec)

    def operation(self, index: int, group: int, traced: bool) -> Sample:
        # A fresh design per operation: nothing memoised on the Design
        # object survives, so a repeat costs what a fresh CLI run costs.
        design = generate_design(self.specs[group])
        flow = ClusteredPlacementFlow(self.flow_config(group))
        result, wall, probe = self.timed(index, traced, lambda: flow.run(design))
        failures = self.check(design, result)
        digest = checks.qor_digest(result.metrics, result.selection.shapes)
        if self.digests.setdefault(group, digest) != digest:
            failures.append(f"QoR digest of input {group} changed between operations")
        self.qor.setdefault(
            group, Qor.of(result.metrics, self.specs[group].clock_period)
        )
        self.last_result = result
        stages = {
            f"flow.stage.{key}_s": result.metrics.runtimes.get(key, 0.0)
            for key in FLOW_STAGES
        }
        return Sample(group, wall, probe, failures, stages, traced)

    def finish(self) -> Dict[str, float]:
        # The traced pass is short and covers the first inputs only.
        if self.tracer is None and len(self.qor) != self.units:
            raise RuntimeError(f"only inputs {sorted(self.qor)} ran")
        return mean_qor([self.qor[g] for g in sorted(self.qor)])

    def layer_extras(self) -> Dict[str, float]:
        result = self.last_result
        return {
            **self.size_extras(),
            "cluster.num_clusters": float(result.num_clusters),
            "cluster.singletons": float(result.singleton_clusters),
        }


class SweepCold(FlowWorkload):
    """Exact V-P&R on an ariane-class design: the sweep dominates."""

    name = "sweep_cold"
    units = 5
    min_ops = 5
    trace_ops = 4
    #: Swept clusters per design; the cap binds at this size (6 to 13
    #: eligible clusters in 200 generated designs), so an operation
    #: is 5 x 20 candidate evaluations.
    SWEPT = 5

    def spec(self, unit: int) -> DesignSpec:
        return ariane_class(
            f"sweep{unit}", 4000, 10_000 + self.seed * self.units + unit
        )

    def flow_config(self, group: int) -> FlowConfig:
        return FlowConfig(
            run_routing=True,
            jobs=1,
            vpr_config=VPRConfig(max_vpr_clusters=self.SWEPT),
        )

    def check(self, design, result) -> List[str]:
        return super().check(design, result) + checks.check_sweeps(
            result.selection, self.SWEPT, len(GRID)
        )

    def layer_extras(self) -> Dict[str, float]:
        extras = super().layer_extras()
        selection = self.last_result.selection
        extras["vpr.eligible_clusters"] = float(
            len(selection.sweeps) + selection.skipped_clusters
        )
        return extras


class BackendML(FlowWorkload):
    """The GNN stand-in replaces the sweep on a MemPool-class design."""

    name = "backend_ml"
    units = 3
    min_ops = 5
    trace_ops = 4

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, workdir, tracer)
        self.models: List[Any] = []

    def spec(self, unit: int) -> DesignSpec:
        # No hard macros: their discrete floorplan effect makes HPWL
        # bimodal across seeds (15% apart), which no bound survives.
        return DesignSpec(
            name=f"ml{unit}",
            num_instances=10000,
            seq_fraction=0.20,
            logic_depth=38,
            critical_chains=24,
            hierarchy_depth=5,
            hierarchy_branching=5,
            num_macros=0,
            clock_period=3.00,
            high_fanout_nets=10,
            seed=20_000 + self.seed * self.units + unit,
        )

    #: Labelled clusters every model is trained on.
    TRAIN_CLUSTERS = 3
    #: Training designs tried per model before giving up.
    TRAIN_ATTEMPTS = 8

    def _training_samples(self, unit: int) -> List[Any]:
        """Labelled samples of exactly ``TRAIN_CLUSTERS`` clusters.

        About one generated training design in twelve has fewer
        clusters in the size window (one in 200 has none), so a short
        design is replaced by the next one of its own seed sequence:
        every model sees the same amount of data, whatever ``--seed``.
        """
        from repro.ml import DatasetConfig, build_dataset

        wanted = self.TRAIN_CLUSTERS * len(GRID)
        base = 25_000 + self.seed * self.units + unit
        for attempt in range(self.TRAIN_ATTEMPTS):
            training_design = generate_design(
                DesignSpec(
                    name=f"train{unit}",
                    num_instances=1200,
                    seq_fraction=0.12,
                    logic_depth=12,
                    critical_chains=2,
                    hierarchy_depth=2,
                    hierarchy_branching=4,
                    clock_period=0.55,
                    high_fanout_nets=2,
                    seed=base + attempt * 1_000_003,
                )
            )
            samples = build_dataset(
                [training_design],
                DatasetConfig(
                    max_clusters_per_design=self.TRAIN_CLUSTERS,
                    min_cluster_instances=40,
                    max_cluster_instances=150,
                    perturbation_seeds=(0,),
                    cluster_sizes=(80,),
                    vpr=VPRConfig(placer_iterations=3),
                ),
            )
            if len(samples) == wanted:
                return samples
        raise RuntimeError(
            f"no training design with {self.TRAIN_CLUSTERS} labelled clusters "
            f"in {self.TRAIN_ATTEMPTS} attempts"
        )

    def setup_unit(self, unit: int) -> None:
        from repro.ml import TrainingConfig, train_model

        start = time.perf_counter()
        samples = self._training_samples(unit)
        self.note("ml.dataset_s", time.perf_counter() - start)
        start = time.perf_counter()
        trained = train_model(samples, config=TrainingConfig(epochs=6, seed=0))
        self.note("ml.train_s", time.perf_counter() - start)
        self.models.append(trained.model)
        super().setup_unit(unit)

    def flow_config(self, group: int) -> FlowConfig:
        from repro.ml import FeatureExtractor, TotalCostPredictor

        selector = MLShapeSelector(
            TotalCostPredictor(self.models[group], FeatureExtractor())
        )
        return FlowConfig(run_routing=True, jobs=1, shape_selector=selector)

    def check(self, design, result) -> List[str]:
        failures = super().check(design, result)
        if result.selection.sweeps:
            failures.append("ML selector ran exact sweeps")
        return failures


# ----------------------------------------------------------------------
# ECO sessions
# ----------------------------------------------------------------------
class EcoSessions(Workload):
    """Seeded edit scripts against persistent sessions over routed,
    checkpointed, cached base runs."""

    name = "eco_session"
    units = 3
    #: Scripts per session over which QoR is read (and after which the
    #: drift check replays); the series never stops earlier.
    QOR_AFTER = 14
    min_ops = 3 * 14
    trace_ops = 3 * 14
    #: Swept clusters per design.  Op cost is multimodal — a script
    #: re-sweeps 0 to 3 clusters — and with fewer swept clusters some
    #: seeds' designs put the median in the no-re-sweep mode (0.15 s
    #: against 0.6 s).  At 3 of ~10 it stays in the re-sweep modes.
    SWEPT = 3

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, workdir, tracer)
        self.specs: List[DesignSpec] = []
        self.sessions: List[Any] = []
        self.base_metrics: List[Any] = []
        self.generators: List[EditScriptGenerator] = []
        self.scripts: List[List[List[Dict[str, Any]]]] = []
        self.qor: Dict[int, List[Qor]] = {}
        self.drift: Optional[float] = None
        self.cache_bytes = 0
        self.recovery_bytes: List[int] = []
        self.snapshot_bytes: List[int] = []
        self._first_group = 0

    def spec(self, unit: int) -> DesignSpec:
        return ariane_class(
            f"eco{unit}", 2000, 30_000 + self.seed * self.units + unit
        )

    def flow_config(self, unit: Optional[int]) -> FlowConfig:
        """The base-run configuration; ``unit=None`` is the cold
        reference flow (no checkpoint, no cache)."""
        config = FlowConfig(
            run_routing=True,
            jobs=1,
            vpr_config=VPRConfig(max_vpr_clusters=self.SWEPT),
        )
        if unit is not None:
            config.checkpoint_dir = str(self.workdir / f"ckpt{unit}")
            config.cache_dir = str(self.workdir / f"cache{unit}")
        return config

    def setup_unit(self, unit: int) -> None:
        from repro.eco import EcoSession

        spec = self.spec(unit)
        start = time.perf_counter()
        design = generate_design(spec)
        self.note("designs.generate_s", time.perf_counter() - start)
        self.sizes.append((design.num_instances, design.num_nets))
        clear_rsmt_cache()
        start = time.perf_counter()
        base = ClusteredPlacementFlow(self.flow_config(unit)).run(design)
        self.note("eco.base_run_s", time.perf_counter() - start)
        self.extra_failures += [
            f"base run {unit}: {f}"
            for f in checks.check_flow_result(design, base, GRID)
        ]
        start = time.perf_counter()
        session = EcoSession(
            str(self.workdir / f"ckpt{unit}"),
            cache_dir=str(self.workdir / f"cache{unit}"),
        )
        self.note("eco.open_s", time.perf_counter() - start)
        ckpt = self.workdir / f"ckpt{unit}"
        self.recovery_bytes.append(
            sum(p.stat().st_size for p in ckpt.rglob("*") if p.is_file())
        )
        self.snapshot_bytes.append((ckpt / "stage_eco_base.pkl").stat().st_size)
        self.specs.append(spec)
        self.sessions.append(session)
        self.base_metrics.append(base.metrics)
        self.generators.append(
            EditScriptGenerator(40_000 + self.seed * self.units + unit)
        )
        self.scripts.append([])

    def operation(self, index: int, group: int, traced: bool) -> Sample:
        from repro.eco import parse_edits

        session = self.sessions[group]
        script = self.generators[group].script(session.design)
        self.scripts[group].append(script)
        edits = parse_edits(script)
        result, wall, probe = self.timed(index, traced, lambda: session.apply(edits))
        design = session.design
        failures = checks.check_metrics_finite(result.metrics)
        failures += checks.check_hpwl(design, result.metrics.hpwl)
        failures += checks.check_placement(design)
        failures += checks.check_partition(session.cluster_of, design.num_instances)
        failures += checks.check_shapes(session.shapes, GRID)
        if len(self.scripts[group]) <= self.QOR_AFTER:
            self.qor.setdefault(group, []).append(
                Qor.of(result.metrics, self.specs[group].clock_period)
            )
        stages = {
            name: result.runtimes.get(key, 0.0) for name, key in ECO_STAGES.items()
        }
        # One pooled sample group: script cost varies far more within a
        # session than between sessions.
        failures = [f"session {group}: {f}" for f in failures]
        return Sample(0, wall, probe, failures, stages, traced)

    def warmup(self) -> None:
        # The warm-up script mutates session 0 like any other (it is in
        # that session's script list, so replays stay exact); the timed
        # cycle then starts at session 1 and all sessions reach
        # QOR_AFTER together.
        super().warmup()
        self._first_group = 1

    def group_of(self, index: int) -> int:
        return (index + self._first_group) % self.units

    def finish(self) -> Dict[str, float]:
        from repro.eco import EcoSession, apply_edits, parse_edits

        short = [
            g for g in range(self.units) if len(self.qor.get(g, ())) < self.QOR_AFTER
        ]
        if short:
            raise RuntimeError(f"sessions {short} never reached the QoR point")
        # Empty script on a fresh session == the base run, bit for bit.
        probe = self.seed % self.units
        fresh = EcoSession(
            str(self.workdir / f"ckpt{probe}"),
            cache_dir=str(self.workdir / f"cache{probe}"),
        )
        noop = fresh.apply([])
        if not noop.noop:
            self.extra_failures.append("empty ECO script was not served as a no-op")
        self.extra_failures += [
            f"no-op ECO: {f}"
            for f in checks.same_metrics(noop.metrics, self.base_metrics[probe])
        ]

        if self.tracer is not None:
            # Drift (traced pass only — it costs a cold flow): the
            # session's HPWL after QOR_AFTER scripts against a cold flow
            # on the same edited netlist, rebuilt independently of the
            # session by replaying the scripts on a fresh design.
            design = generate_design(self.specs[probe])
            for script in self.scripts[probe][: self.QOR_AFTER]:
                apply_edits(design, parse_edits(script))
            clear_rsmt_cache()
            cold = ClusteredPlacementFlow(self.flow_config(None)).run(design)
            self.drift = (
                abs(self.qor[probe][-1].hpwl - cold.metrics.hpwl) / cold.metrics.hpwl
            )
        self.cache_bytes = sum(
            p.stat().st_size
            for unit in range(self.units)
            for p in (self.workdir / f"cache{unit}").rglob("*")
            if p.is_file()
        )
        # QoR the sessions delivered, over their first QOR_AFTER scripts.
        return mean_qor([q for g in range(self.units) for q in self.qor[g]])

    def layer_extras(self) -> Dict[str, float]:
        session = self.sessions[0]
        return {
            **self.size_extras(),
            "cluster.num_clusters": float(int(session.cluster_of.max()) + 1),
            "eco.hpwl_drift": self.drift if self.drift is not None else 0.0,
            "cache.bytes_on_disk": float(self.cache_bytes),
            "recovery.bytes_written": sum(self.recovery_bytes) / self.units,
            "netlist.snapshot_bytes": sum(self.snapshot_bytes) / self.units,
        }


# ----------------------------------------------------------------------
# Served jobs
# ----------------------------------------------------------------------
class ServeClosed(Workload):
    """A closed loop of one client against one ``repro serve`` daemon.

    The client submits each of its generated designs once cold, then
    twice warm, waiting for every job before the next: exactly one
    third of the jobs are cold, and the hit / miss counts are exact.

    One client, not two: this host's second vCPU delivers anywhere
    between none and all of a core from minute to minute (two
    CPU-bound processes measured at 1.0x-2.5x their solo time), so a
    loop that keeps two runners busy measures the hypervisor.  The
    two-client loop is on the ``unmeasurable`` list.
    """

    name = "serve_closed"
    units = 3
    WORKERS = 2
    #: Designs every run completes (the QoR set).
    MIN_DESIGNS = 3
    CLOCK_PERIOD = 1.0
    #: Client poll interval: coarse enough that polling does not keep
    #: pre-empting the runner on a host with one dependable core.
    POLL_S = 0.05

    def __init__(self, seed: int, workdir: Path, tracer: Optional[Tracer]) -> None:
        super().__init__(seed, workdir, tracer)
        self.daemons: List[Tuple[subprocess.Popen, str]] = []
        self.daemon: Optional[subprocess.Popen] = None
        self.url = ""
        self.records: List[Dict[str, Any]] = []
        self.stats: Dict[str, Any] = {}

    def design(self, ordinal: int) -> Dict[str, Any]:
        return {
            "name": f"d{ordinal}",
            "num_instances": 1000,
            "clock_period": self.CLOCK_PERIOD,
            "seed": 50_000 + self.seed * 100 + ordinal,
        }

    # -- daemon lifecycle ----------------------------------------------
    def _start_daemon(self, unit: int) -> Tuple[subprocess.Popen, str]:
        from repro.serve import ServeClient

        run_root = self.workdir / f"serve{unit}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--run-root", str(run_root),
                "--cache", str(run_root / "cache"),
                "--port", "0",
                "--workers", str(self.WORKERS),
            ],
            env=env,
            cwd=str(self.workdir),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            client = ServeClient.discover(str(run_root), timeout=60.0)
        except BaseException:
            daemon.kill()
            daemon.wait()
            raise
        return daemon, client.url

    def _stop_daemon(self, daemon: subprocess.Popen, url: str) -> int:
        from repro.serve import ServeClient

        try:
            try:
                ServeClient(url).shutdown()
            except (http.client.HTTPException, OSError):
                # The daemon sometimes closes the socket before its
                # reply is complete; its exit status is the check.
                pass
            return daemon.wait(timeout=60.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    def setup_unit(self, unit: int) -> None:
        start = time.perf_counter()
        self.daemons.append(self._start_daemon(unit))
        self.note("serve.daemon_start_s", time.perf_counter() - start)

    def warmup(self) -> None:
        """Retire the daemons that only existed to time start-up again,
        then one throw-away job so the survivor has spawned a runner."""
        from repro.serve import ServeClient

        while len(self.daemons) > 1:
            code = self._stop_daemon(*self.daemons.pop(0))
            if code != 0:
                self.extra_failures.append(f"spare daemon exited {code}")
        self.daemon, self.url = self.daemons.pop()
        client = ServeClient(self.url)
        spec = {"design": self.design(99), "routing": True}
        final = client.wait(client.submit(spec), timeout=120.0, poll=self.POLL_S)
        if final["state"] != "done":
            self.extra_failures.append(f"warm-up job {final['state']}")

    # -- the closed loop -----------------------------------------------
    def measure(self, seconds: float) -> Tuple[List[Sample], float]:
        from repro.serve import ServeClient

        client = ServeClient(self.url)
        start = time.perf_counter()
        ordinal = 0
        # The time budget is only consulted between designs, so the
        # cold : warm mix is 1 : 2 exactly.
        while ordinal < self.MIN_DESIGNS or time.perf_counter() - start < seconds:
            spec = {"design": self.design(ordinal), "routing": True}
            for repeat in range(3):
                record: Dict[str, Any] = {
                    "ordinal": ordinal,
                    "repeat": repeat,
                    "cold": repeat == 0,
                    "probe_s": speed_probe(),
                }
                submitted = time.perf_counter()
                try:
                    job_id = client.submit(spec)
                    record["submit_rtt_s"] = time.perf_counter() - submitted
                    final = client.wait(job_id, timeout=120.0, poll=self.POLL_S)
                    record["latency_s"] = time.perf_counter() - submitted
                    record["job"] = final
                    if final["state"] == "done":
                        record["result"] = client.result(job_id)["qor"]
                except Exception as exc:  # a failed job is a failed op
                    record["latency_s"] = time.perf_counter() - submitted
                    record["error"] = repr(exc)
                self.records.append(record)
            ordinal += 1
        loop_wall = time.perf_counter() - start
        return [self._sample(r) for r in self.records], loop_wall

    def _sample(self, record: Dict[str, Any]) -> Sample:
        failures: List[str] = []
        job = record.get("job") or {}
        if "error" in record:
            failures.append(f"client error: {record['error']}")
        elif job.get("state") != "done":
            failures.append(f"job {job.get('id')} ended {job.get('state')}")
        else:
            counters = job.get("counters", {})
            hits = counters.get("vpr.cache.hit", 0)
            misses = counters.get("vpr.cache.miss", 0)
            if record["cold"] and hits:
                failures.append(f"cold job {job['id']} had {hits} cache hits")
            if not record["cold"] and misses:
                failures.append(f"warm job {job['id']} had {misses} cache misses")
        # Grouped by position in the cold / warm / warm triple: wall_s is
        # then the mean of three medians — the expected latency under
        # the 1 : 2 mix, from the middle of each mode.  (The pooled
        # median sits at the slow edge of the warm mode instead, where
        # two disturbed jobs move it.)
        return Sample(record["repeat"], record["latency_s"], record["probe_s"], failures)

    # -- post-series checks --------------------------------------------
    def _inprocess_report(self, design: Dict[str, Any]) -> Dict[str, Any]:
        """The same spec through the CLI code path, in this process."""
        from repro.cli import main as cli_main

        report_path = self.workdir / "inprocess.json"
        argv = [
            "flow", "--generator", json.dumps(design, sort_keys=True),
            "--flow", "ours", "--report", str(report_path),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code:
            raise RuntimeError(f"in-process flow exited {code}")
        return json.loads(report_path.read_text())

    def finish(self) -> Dict[str, float]:
        from repro.serve import ServeClient
        from repro.serve.schemas import deterministic_qor

        self.stats = ServeClient(self.url).stats()
        code = self._stop_daemon(self.daemon, self.url)
        self.daemon = None
        if code != 0:
            self.extra_failures.append(f"daemon exited {code} on POST /shutdown")

        def canonical(report: Dict[str, Any]) -> str:
            return json.dumps(deterministic_qor(report), sort_keys=True)

        by_design: Dict[int, List[Dict[str, Any]]] = {}
        for record in self.records:
            if "result" in record:
                by_design.setdefault(record["ordinal"], []).append(record["result"])
        qor: List[Qor] = []
        for ordinal, reports in sorted(by_design.items()):
            if len(reports) != 3:
                continue  # already counted as failed operations
            cold = canonical(reports[0])
            if any(canonical(r) != cold for r in reports[1:]):
                self.extra_failures.append(
                    f"design d{ordinal}: warm result differs from cold"
                )
            if ordinal < self.MIN_DESIGNS:
                m = reports[0]["metrics"]
                qor.append(
                    Qor(
                        hpwl=m["hpwl_um"],
                        rwl=m["routed_wirelength_um"],
                        power=m["power_mw"],
                        wns=m["wns_ns"],
                        tns=m["tns_ns"],
                        clock_period=self.CLOCK_PERIOD,
                    )
                )
        # One design per run also goes through the flow in-process.
        probe = self.seed % self.MIN_DESIGNS
        if probe in by_design:
            local = self._inprocess_report(self.design(probe))
            if canonical(local) != canonical(by_design[probe][0]):
                self.extra_failures.append(
                    f"design d{probe}: served result differs from the "
                    "in-process flow"
                )
        if len(qor) != self.MIN_DESIGNS:
            raise RuntimeError("the fixed QoR set of served designs did not complete")
        return mean_qor(qor)

    def layer_extras(self) -> Dict[str, float]:
        import statistics

        done = [r for r in self.records if (r.get("job") or {}).get("state") == "done"]

        def med(values: List[float]) -> float:
            return statistics.median(values) if values else 0.0

        def per_job(counter: str) -> float:
            total = sum(r["job"].get("counters", {}).get(counter, 0) for r in done)
            return total / max(len(done), 1)

        hits, misses = per_job("vpr.cache.hit"), per_job("vpr.cache.miss")
        return {
            "serve.queue_wait_s": med(
                [r["job"]["started_unix"] - r["job"]["created_unix"] for r in done]
            ),
            "serve.runner_wall_s": med([r["job"]["wall_s"] for r in done]),
            "serve.overhead_s": med(
                [
                    r["latency_s"]
                    - (r["job"]["finished_unix"] - r["job"]["created_unix"])
                    for r in done
                ]
            ),
            "serve.submit_rtt_s": med([r["submit_rtt_s"] for r in done]),
            "serve.cold_job_s": med([r["latency_s"] for r in done if r["cold"]]),
            "serve.warm_job_s": med([r["latency_s"] for r in done if not r["cold"]]),
            "serve.jobs_failed": float(len(self.records) - len(done)),
            "vpr.cache.hit": hits,
            "vpr.cache.miss": misses,
            "vpr.cache.store": per_job("vpr.cache.store"),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.bytes_on_disk": float(
                self.stats.get("cache", {}).get("bytes_on_disk", 0)
            ),
            "designs.instances": 1000.0,
        }

    def close(self) -> None:
        leftovers = [d for d, _ in self.daemons]
        if self.daemon is not None:
            leftovers.append(self.daemon)
        for daemon in leftovers:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        self.daemons.clear()
        self.daemon = None


WORKLOADS = {
    cls.name: cls for cls in (SweepCold, BackendML, EcoSessions, ServeClosed)
}
