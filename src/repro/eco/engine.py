"""The incremental ECO engine: checkpoint in, updated QoR out.

:class:`EcoSession` opens a finished checkpointed run (the flow's
``eco_base`` design snapshot plus its clustering / shape / metrics
stage records, each read by the content key the run's manifest lists)
and applies edit scripts against it, recomputing only what each edit
touched:

========== ======================= ========== ============
edit kind  clustering              V-P&R      placement
========== ======================= ========== ============
resize /   kept (remapped)         dirty      dirty
swap                               clusters   clusters
add        neighbour-majority      dirty      dirty
           assignment              clusters   clusters
remove     kept (remapped)         dirty      dirty
                                   clusters   clusters
reconnect  kept (remapped)         dirty      dirty
                                   clusters   clusters
========== ======================= ========== ============

STA is what a cold flow runs: one full post-route update.  Every edit
kind bumps the design's structure key, so the timing graph is
recompiled once per script (``sta.graph.recompiled``).

Untouched (cluster, shape) evaluations keep the checkpointed shapes
and their content-addressed cache entries are mtime-touched
(:meth:`EvaluationCache.touch`) so a concurrent GC evicts colder
entries first.  An empty edit script is served straight from the
checkpointed metrics stage — byte-identical to the base run, by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.cache import EvaluationCache, cache_key
from repro.core.flow import evaluate_placed_design
from repro.core.metrics import PPAMetrics
from repro.core.ppa_clustering import ClusteringResult
from repro.core.shapes import ShapeCandidate
from repro.core.stages import stage_decoder
from repro.core.vpr import VPRConfig, VPRFramework, VPRShapeSelector
from repro.eco.apply import EcoImpact, apply_edits
from repro.eco.edits import EcoEdit
from repro.netlist.design import Design
from repro.netlist.snapshot import design_from_snapshot
from repro.place.placer import GlobalPlacer, PlacerConfig
from repro.place.problem import PlacementProblem
from repro.recovery.checkpoint import CheckpointError, CheckpointStore

__all__ = ["EcoResult", "EcoSession", "run_eco"]


@dataclass
class EcoResult:
    """Outcome of one applied edit script.

    Attributes:
        metrics: Updated PPA metric record (for a no-op script, the
            checkpointed base metrics verbatim).
        noop: True when the script was empty and the checkpointed
            metrics were served without recomputation.
        dirty_clusters: Cluster ids the edits touched (re-swept /
            re-placed).
        reused_clusters: Swept clusters served from the checkpointed
            shapes without re-evaluation.
        resweep_clusters: Dirty eligible clusters whose shape sweep
            re-ran (through the evaluation cache when attached).
        free_instances: Instances the incremental placer was allowed
            to move.
        total_instances: Post-edit instance count.
        runtimes: Phase -> wall-clock seconds.
        shapes: The updated cluster-shape selection.
    """

    metrics: PPAMetrics
    noop: bool = False
    dirty_clusters: List[int] = field(default_factory=list)
    reused_clusters: int = 0
    resweep_clusters: List[int] = field(default_factory=list)
    free_instances: int = 0
    total_instances: int = 0
    runtimes: Dict[str, float] = field(default_factory=dict)
    shapes: Dict[int, ShapeCandidate] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly report (CLI ``--report`` / serve result payloads).

        The ``metrics`` block uses the same key names as
        :func:`repro.core.reporting.flow_result_to_dict`, so an ECO
        job's result is directly comparable to its parent flow job's.
        """
        metrics = self.metrics
        out: Dict[str, object] = {
            "noop": self.noop,
            "clusters": {
                "dirty": list(self.dirty_clusters),
                "reused": self.reused_clusters,
                "resweep": list(self.resweep_clusters),
            },
            "instances": {
                "free": self.free_instances,
                "total": self.total_instances,
            },
            "runtimes_s": dict(self.runtimes),
            "metrics": {
                "hpwl_um": metrics.hpwl,
                "routed_wirelength_um": metrics.rwl,
                "wns_ns": metrics.wns,
                "tns_ns": metrics.tns,
                "power_mw": metrics.power,
                "hold_wns_ns": metrics.hold_wns,
                "hold_tns_ns": metrics.hold_tns,
            },
        }
        return out

    def qor_summary(self) -> Dict[str, float]:
        """Flat scalar QoR dict for telemetry run reports.

        Dotted keys match :func:`repro.core.reporting.flow_qor_summary`
        so ``repro report diff`` can compare an ECO run against the
        cold run it shortcuts.
        """
        m = self.metrics
        out: Dict[str, object] = {
            "qor.hpwl": m.hpwl,
            "qor.rwl": m.rwl,
            "qor.wns": m.wns,
            "qor.tns": m.tns,
            "qor.power": m.power,
            "qor.hold_wns": m.hold_wns,
            "qor.hold_tns": m.hold_tns,
            "eco.dirty_clusters": len(self.dirty_clusters),
            "eco.reused_clusters": self.reused_clusters,
            "eco.free_instances": self.free_instances,
            "eco.runtime_s": self.runtimes.get("eco_total"),
        }
        return {k: v for k, v in out.items() if v is not None}


class EcoSession:
    """A persistent delta-evaluation session over one checkpointed run.

    Opening a session materialises the base design from the
    checkpoint's ``eco_base`` snapshot; each :meth:`apply` call mutates
    that design and refreshes the session's cluster assignment, shape
    selection and (in routing mode) the persistent timing analyzer —
    so a *sequence* of edit scripts pays incremental cost at every
    step, which is what makes the serve endpoint's interactive loop
    fast.
    """

    def __init__(
        self,
        checkpoint_dir: str,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.store = CheckpointStore(checkpoint_dir)
        #: The base run's manifest config block.
        self.run_config = self.store.open_existing()
        base = self._load("eco_base")
        try:
            self.design: Design = design_from_snapshot(base["design"])
        except (ValueError, KeyError) as exc:
            raise CheckpointError(
                f"checkpoint {checkpoint_dir} holds an eco_base design this "
                f"build cannot open ({exc}): it was written by an older build "
                "or damaged; re-run the base flow with --checkpoint"
            ) from exc
        clustering = self._load("clustering")
        self.cluster_of = np.asarray(clustering.cluster_of, dtype=np.int64).copy()
        if len(self.cluster_of) != self.design.num_instances:
            raise CheckpointError(
                f"checkpoint {checkpoint_dir} is inconsistent: clustering "
                f"covers {len(self.cluster_of)} instances but the eco_base "
                f"snapshot has {self.design.num_instances}"
            )
        self.shapes: Dict[int, ShapeCandidate] = dict(self._load("vpr").shapes)
        # Per-cluster (digest, cell_area) pairs saved by the base run:
        # lets the touch path address unchanged clusters' cache entries
        # without re-inducing their sub-netlists.  A run without the
        # stage (a selector with no framework) recomputes on first use.
        self.cluster_digests: Dict[int, Tuple[str, float]] = dict(
            self._load("vpr_digests", required=False) or {}
        )
        # The base run's result-affecting V-P&R knobs, so cache keys
        # match the base run's for unchanged clusters.
        self.vpr_config = VPRConfig.from_result_fingerprint(self.run_config)
        self.cache = EvaluationCache(cache_dir) if cache_dir else None
        self.run_routing = bool(self.run_config.get("run_routing", True))
        #: The flow seed (placer warm start), not ``vpr_config.seed``.
        self.seed = int(self.run_config.get("seed", 0))
        self.applied_scripts = 0

    def _load(self, stage: str, required: bool = True):
        """The base run's ``stage`` record, read by the key its
        manifest lists; a missing one raises (or is None when not
        ``required``)."""
        key = self.store.stage_key(stage)
        record = None
        if key is not None:
            instances = self.design.num_instances if stage != "eco_base" else None
            record = self.store.load_stage(
                stage, key, stage_decoder(stage, key, instances)
            )
        if record is None and required:
            raise CheckpointError(
                f"checkpoint {self.store.directory} has no {stage!r} stage; "
                "re-run the base flow with --checkpoint to completion"
            )
        return record

    # ------------------------------------------------------------------
    def apply(self, edits: Sequence[EcoEdit]) -> EcoResult:
        """Apply one edit script and return updated QoR."""
        obs.count("eco.runs")
        self.applied_scripts += 1
        with obs.stage("eco.apply", edits=len(edits)) as total:
            result = self._apply(edits) if edits else self._noop_result()
        result.runtimes["eco_total"] = total.elapsed
        if not result.noop:
            result.metrics.runtimes.update(result.runtimes)
            obs.event(
                "eco.done",
                edits=len(edits),
                dirty_clusters=len(result.dirty_clusters),
                free_instances=result.free_instances,
                hpwl=result.metrics.hpwl,
            )
        return result

    def _apply(self, edits: Sequence[EcoEdit]) -> EcoResult:
        """The five phases of a non-empty script, each one stage."""
        runtimes: Dict[str, float] = {}
        with obs.stage("eco.apply_edits") as stage:
            obs.start_task("eco.edits", len(edits), unit="edits")
            impact = apply_edits(self.design, edits)
            obs.advance("eco.edits", len(edits))
            obs.complete("eco.edits")
        runtimes["eco_apply"] = stage.elapsed

        with obs.stage("eco.recluster") as stage:
            dirty = self._remap_clusters(impact)
        runtimes["eco_recluster"] = stage.elapsed
        obs.event(
            "eco.clusters",
            dirty=len(dirty),
            total=int(self.cluster_of.max()) + 1 if len(self.cluster_of) else 0,
        )

        with obs.stage("eco.vpr", dirty=len(dirty)) as stage:
            resweep, reused = self._refresh_shapes(dirty)
        runtimes["eco_vpr"] = stage.elapsed

        with obs.stage("eco.place") as stage:
            free = self._replace(dirty, impact)
        runtimes["eco_place"] = stage.elapsed

        with obs.stage("eco.metrics") as stage:
            metrics = evaluate_placed_design(self.design, run_routing=self.run_routing)
        runtimes["eco_metrics"] = stage.elapsed
        return EcoResult(
            metrics=metrics,
            dirty_clusters=sorted(dirty),
            reused_clusters=len(reused),
            resweep_clusters=resweep,
            free_instances=free,
            total_instances=self.design.num_instances,
            runtimes=runtimes,
            shapes=dict(self.shapes),
        )

    # ------------------------------------------------------------------
    def _noop_result(self) -> EcoResult:
        """Serve an empty script from the checkpointed metrics stage
        (an unfinished base run has none: ``CheckpointError``)."""
        metrics = self._load("metrics")
        obs.count("eco.noop")
        obs.event("eco.noop")
        return EcoResult(
            metrics=metrics,
            noop=True,
            reused_clusters=len(self.shapes),
            total_instances=self.design.num_instances,
            shapes=dict(self.shapes),
        )

    # ------------------------------------------------------------------
    def _remap_clusters(self, impact: EcoImpact) -> Set[int]:
        """Carry the checkpointed assignment across the edit.

        Surviving instances keep their cluster; added instances join
        the cluster most of their neighbours belong to (deterministic
        tie-break: highest vote count, then lowest cluster id).
        Returns the dirty-cluster set: every cluster containing a
        touched instance or touching a changed net.
        """
        design = self.design
        old = self.cluster_of
        mapping = impact.instance_map
        new = np.full(design.num_instances, -1, dtype=np.int64)
        valid = mapping >= 0
        new[mapping[valid]] = old[valid]
        for idx in np.flatnonzero(new < 0):
            inst = design.instances[int(idx)]
            votes: Dict[int, int] = {}
            for net in inst.pin_nets.values():
                for other in net.instances():
                    oi = other.index
                    if oi != idx and new[oi] >= 0:
                        cid = int(new[oi])
                        votes[cid] = votes.get(cid, 0) + 1
            if votes:
                cid = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            else:
                # Unconnected cell: join the largest surviving cluster.
                counts = np.bincount(new[new >= 0])
                cid = int(counts.argmax()) if len(counts) else 0
            new[idx] = cid
            obs.count("eco.cluster.assigned")
        self.cluster_of = new

        dirty: Set[int] = set()
        for idx in impact.touched_instances:
            dirty.add(int(new[idx]))
        for net_idx in impact.touched_nets:
            for inst in design.nets[net_idx].instances():
                dirty.add(int(new[inst.index]))
        total = int(new.max()) + 1 if len(new) else 0
        obs.count("eco.clusters.dirty", len(dirty))
        obs.count("eco.clusters.reused", max(0, total - len(dirty)))
        return dirty

    # ------------------------------------------------------------------
    def _refresh_shapes(
        self, dirty: Set[int]
    ) -> Tuple[List[int], List[int]]:
        """Re-sweep dirty eligible clusters; keep and warm the rest.

        Returns ``(resweep_ids, reused_ids)`` over the eligible capped
        cluster list.  Re-sweeps go through the attached
        :class:`EvaluationCache` (an unchanged-content cluster is a
        pure cache hit); reused clusters' cache entries are
        mtime-touched so GC evicts colder entries first.

        Only a base run that selected shapes by exact V-P&R can be
        re-swept: a checkpoint persists no predictor and no RNG stream,
        so under any other selector every cluster keeps its
        checkpointed shape (and there are no cache entries to warm).
        """
        exact = self.run_config.get("selector") in (None, VPRShapeSelector.name)
        framework = VPRFramework(self.vpr_config, checkpoint=None, cache=self.cache)
        members = ClusteringResult(cluster_of=self.cluster_of).members()
        eligible, _skipped = self.vpr_config.swept_clusters(members)
        resweep = (
            [c for c in eligible if c in dirty or c not in self.shapes]
            if exact
            else []
        )
        reused = [c for c in eligible if c not in resweep]

        for sweep in framework.sweep_clusters(self.design, members, resweep):
            cid = sweep.cluster_id
            self.shapes[cid] = sweep.best
            # The sweep just induced/digested this cluster, so the
            # refreshed digest is served from the framework memos.
            self.cluster_digests[cid] = framework.cluster_digest(
                self.design, members[cid]
            )
            obs.count("eco.vpr.resweep")
        if self.cache is not None and exact:
            for cid in reused:
                entry = self.cluster_digests.get(cid)
                if entry is None:
                    # Pre-digest checkpoint: induce once and remember.
                    entry = framework.cluster_digest(
                        self.design, members[cid]
                    )
                    self.cluster_digests[cid] = entry
                else:
                    obs.count("eco.digest.reused")
                digest, cell_area = entry
                for candidate in self.vpr_config.candidates:
                    key = cache_key(
                        digest, candidate, self.vpr_config, cell_area=cell_area
                    )
                    if self.cache.touch(key):
                        obs.count("eco.cache.touched")
        obs.count(
            "eco.vpr.reused", len(reused) * len(self.vpr_config.candidates)
        )
        # Clusters can vanish (all members removed): drop their shapes.
        live = len(members)
        self.shapes = {c: s for c, s in self.shapes.items() if c < live}
        self.cluster_digests = {
            c: d for c, d in self.cluster_digests.items() if c < live
        }
        return resweep, reused

    # ------------------------------------------------------------------
    def _replace(self, dirty: Set[int], impact: EcoImpact) -> int:
        """Warm-start incremental placement with only dirty clusters free."""
        design = self.design
        cluster_of = self.cluster_of
        total_clusters = int(cluster_of.max()) + 1 if len(cluster_of) else 0
        dirty_mask = np.zeros(total_clusters, dtype=bool)
        for cid in dirty:
            if 0 <= cid < total_clusters:
                dirty_mask[cid] = True

        # Seed added cells without explicit coordinates at their
        # cluster's centroid (over pre-existing members).
        added_unpositioned = [
            idx
            for idx in impact.added_instances
            if idx not in impact.positioned_instances
        ]
        if added_unpositioned:
            added_set = set(impact.added_instances)
            fp = design.floorplan
            for idx in added_unpositioned:
                cid = int(cluster_of[idx])
                xs = [
                    design.instances[i].x
                    for i in np.flatnonzero(cluster_of == cid)
                    if i not in added_set
                ]
                ys = [
                    design.instances[i].y
                    for i in np.flatnonzero(cluster_of == cid)
                    if i not in added_set
                ]
                inst = design.instances[idx]
                if xs:
                    inst.x = float(np.mean(xs))
                    inst.y = float(np.mean(ys))
                else:
                    inst.x = (fp.core_llx + fp.core_urx) / 2.0
                    inst.y = (fp.core_lly + fp.core_ury) / 2.0

        saved_fixed = [inst.fixed for inst in design.instances]
        try:
            for idx, inst in enumerate(design.instances):
                if not dirty_mask[cluster_of[idx]]:
                    inst.fixed = True
            problem = PlacementProblem(design)
            free = int(problem.movable[: design.num_instances].sum())
            obs.count("eco.place.freed", free)
            obs.count(
                "eco.place.frozen", design.num_instances - free
            )
            placer_config = PlacerConfig(
                incremental=True, seed=self.seed, telemetry="eco.gp"
            )
            GlobalPlacer(problem, placer_config).run()
        finally:
            for inst, was_fixed in zip(design.instances, saved_fixed):
                inst.fixed = was_fixed
        return free


def run_eco(
    checkpoint_dir: str,
    edits: Sequence[EcoEdit],
    cache_dir: Optional[str] = None,
) -> EcoResult:
    """One-shot ECO: open the checkpoint, apply, return updated QoR.

    The CLI path (``repro eco RUNDIR --edits FILE``); for repeated
    edits against one base, hold an :class:`EcoSession` instead.
    """
    session = EcoSession(checkpoint_dir, cache_dir=cache_dir)
    return session.apply(list(edits))
