"""Virtualized P&R (V-P&R) shape selection (Section 3.2, Figure 3).

One job: evaluate a cluster's shape candidates and select one.  For
each large cluster, induce the sub-netlist once
(:mod:`repro.core.subnetlist`: inter-cluster nets become virtual IO
ports), and for each of the 20 (aspect ratio, utilization)
candidates build a virtual die, run placement and global routing, and
score

    Total Cost = Cost_HPWL + delta * Cost_Congestion          (Eq. 4-5)

with ``Cost_HPWL = HPWL_avg / (W_core + H_core)`` and
``Cost_Congestion`` the mean congestion of the top-X% GCells.  The
best-cost candidate becomes the cluster's shape in the cluster .lef.

Four shape selectors mirror the paper's Table 6 arms:

* :class:`VPRShapeSelector` — exact V-P&R (20 P&R runs per cluster),
* :class:`MLShapeSelector` — GNN-predicted Total Cost (measured
  ~2.0-2.6x over the exact sweep by ``benchmarks/bench_ml_speedup.py``,
  not the ~30x Section 3.2 reports),
* :class:`RandomShapeSelector` / :class:`UniformShapeSelector` — the
  ablation baselines.

Evaluation is the flow's runtime bottleneck.  A cluster's sub-netlist
is induced **once** (:meth:`VPRFramework.induce`) and shared by all 20
candidates and by later callers (ML features, L-shape sweeps, dataset
labelling); the candidates are placed as one lockstep batch and routed
as one stack (:meth:`VPRFramework.evaluate_candidates`), off the sub's
one flat form, and every phase records through :func:`repro.obs.stage`.
:meth:`VPRFramework.sweep_clusters` hands the sweep itself — stored
results, executors, the failure rule — to :mod:`repro.core.sweep`.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cache import EvaluationCache, cache_key
from repro.core.shapes import ShapeCandidate, default_candidate_grid, uniform_shape
from repro.core.subnetlist import (
    DIE_MARGIN,
    ROUTE_TARGET_CELLS,
    _SubContext,
    _virtual_die,
    extract_subnetlist,
)
from repro.recovery.checkpoint import CheckpointStore
from repro.netlist.design import Design
from repro.place.placer import GlobalPlacer, PlacerConfig
from repro.route.gcell import GCellGrid
from repro.route.global_route import GlobalRouter


@dataclass
class VPRConfig:
    """V-P&R knobs.

    Attributes:
        delta: Congestion weight in Total Cost (default 0.01, following
            the paper / MAPLE [13]).
        top_x_percent: X of the Congestion Cost (Eq. 5; default 10).
        min_cluster_instances: Only clusters larger than this get
            V-P&R (the paper's hyperparameter-tuned bound of 200).
        max_vpr_clusters: Practical cap on the number of (largest)
            clusters swept per design; None sweeps all eligible
            clusters.  When the cap binds, the skipped clusters use the
            uniform default shape and the count is recorded in
            ``VPRSelection.skipped_clusters``.
        candidates: The shape grid (defaults to the paper's 20).
        placer_iterations: Global-placement rounds per candidate
            (virtual dies are small; a short run suffices).
        jobs: Worker count of the sweep, at least 1.  1 (default)
            evaluates in the calling process (the inline executor);
            N > 1 fans (cluster, candidate) work items over a fleet of
            N workers (:class:`repro.core.fanout.FleetExecutor`),
            forked locally unless ``fleet_listen`` is set.  Every
            executor selects identical shapes with identical costs.
        chunk_size: (Cluster, candidate) work items bundled into one
            executor task.  None (default) auto-sizes: one cluster's
            grid in process, ``ceil(items / (4 * jobs))`` on a fleet
            — roughly four task waves per worker, amortising
            per-task submission/result overhead on large sweeps while
            keeping the tail balanced.  1 reproduces the
            one-item-per-task scheduling.  Chunking only changes
            scheduling granularity, never results.
        seed: RNG seed (randomised selector arms).
        item_timeout: Wall-clock bound (seconds) on one (cluster,
            candidate) evaluation inside a fleet worker process; an
            item that exceeds it fails and is re-run in process.
            None (the default) disables the bound.  It is a
            process-boundary bound: the inline executor never arms it.
        fleet_listen: None (default) forks the ``jobs`` workers
            locally.  A ``HOST:PORT`` makes the parent bind there and
            wait for ``jobs`` external ``repro worker --connect``
            processes instead (started by hand or over SSH; bind a
            routable address to accept other hosts).  Either way the
            fleet only changes *where* items evaluate, never results.

    The fields that can change a result are declared once, below: the
    cache key, the checkpoint fingerprint and the ECO session's rebuilt
    config are all derived from ``EVALUATION_FIELDS`` (what one
    (cluster, candidate) evaluation depends on) and ``SELECTION_FIELDS``
    (which clusters are swept, over which grid, and how the two costs
    are weighed).  Every other field changes where and when an item
    evaluates, never its costs.
    """

    EVALUATION_FIELDS: ClassVar[Tuple[str, ...]] = (
        "top_x_percent", "placer_iterations", "seed",
    )
    SELECTION_FIELDS: ClassVar[Tuple[str, ...]] = (
        "delta", "min_cluster_instances", "max_vpr_clusters", "candidates",
    )
    EVALUATION_CONSTANTS: ClassVar[Dict[str, object]] = {
        "route_target_cells": ROUTE_TARGET_CELLS,
        "die_margin": DIE_MARGIN,
    }

    delta: float = 0.01
    top_x_percent: float = 10.0
    min_cluster_instances: int = 200
    max_vpr_clusters: Optional[int] = 12
    candidates: List[ShapeCandidate] = field(default_factory=default_candidate_grid)
    placer_iterations: int = 6
    jobs: int = 1
    chunk_size: Optional[int] = None
    seed: int = 0
    item_timeout: Optional[float] = None
    fleet_listen: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be a positive integer or None, "
                f"got {self.chunk_size!r}"
            )

    def result_fingerprint(self) -> Dict[str, object]:
        """The result-affecting fields in checkpoint-manifest (JSON)
        form.  The seed is recorded as ``vpr_seed``: a manifest's
        ``seed`` is the flow seed."""
        out = {
            name: getattr(self, name)
            for name in self.EVALUATION_FIELDS + self.SELECTION_FIELDS
        }
        out["vpr_seed"] = out.pop("seed")
        out["candidates"] = [
            [c.aspect_ratio, c.utilization] for c in self.candidates
        ]
        return out

    @classmethod
    def from_result_fingerprint(cls, recorded: Dict[str, object]) -> "VPRConfig":
        """Inverse of :meth:`result_fingerprint` (fields a manifest
        lacks keep their defaults): cache keys derived from the rebuilt
        config match the recording run's."""
        config = cls()
        for name in cls.EVALUATION_FIELDS + cls.SELECTION_FIELDS:
            key = "vpr_seed" if name == "seed" else name
            if key in recorded:
                setattr(config, name, recorded[key])
        if "candidates" in recorded:
            config.candidates = [
                ShapeCandidate(aspect_ratio=ar, utilization=u)
                for ar, u in recorded["candidates"]
            ]
        return config

    def eligible_clusters(self, members: Sequence[Sequence[int]]) -> List[int]:
        """Every cluster id large enough for V-P&R (more than
        ``min_cluster_instances`` members), largest first.  Not capped:
        :meth:`swept_clusters` applies ``max_vpr_clusters``."""
        eligible = [
            c
            for c, member_list in enumerate(members)
            if len(member_list) > self.min_cluster_instances
        ]
        eligible.sort(key=lambda c: -len(members[c]))
        return eligible

    def swept_clusters(
        self, members: Sequence[Sequence[int]]
    ) -> Tuple[List[int], int]:
        """``(swept_ids, skipped)``: the first ``max_vpr_clusters`` of
        :meth:`eligible_clusters` — the clusters that get a shape sweep
        (and a placement region) — and how many eligible clusters the
        cap left on the uniform default shape."""
        eligible = self.eligible_clusters(members)
        cap = self.max_vpr_clusters
        swept = eligible if cap is None else eligible[:cap]
        return swept, len(eligible) - len(swept)


class VPRSweepError(RuntimeError):
    """A V-P&R work item (or a whole cluster's sweep) failed terminally."""


@dataclass
class CandidateEvaluation:
    """Costs of one shape candidate on one cluster.

    ``error`` is None for a successful evaluation; a terminally failed
    item carries the repr of its last exception and non-finite costs.
    Selection never compares such a candidate — see
    :meth:`VPRFramework._best_of`.
    """

    candidate: ShapeCandidate
    hpwl_cost: float
    congestion_cost: float
    error: Optional[str] = None

    @property
    def is_valid(self) -> bool:
        """Whether this evaluation may participate in shape selection."""
        return (
            self.error is None
            and math.isfinite(self.hpwl_cost)
            and math.isfinite(self.congestion_cost)
        )

    def total(self, delta: float) -> float:
        """Total Cost with an explicit delta."""
        return self.hpwl_cost + delta * self.congestion_cost


@dataclass
class VPRSweepResult:
    """All candidate evaluations for one cluster.

    ``runtime`` is the summed per-item evaluation seconds of the
    cluster's candidates (a batched item's share of its batch wall, a
    checkpoint- or cache-served item's original seconds) — the work
    the sweep absorbed, on any executor.  Per-cluster wall-clock is not
    attributable when candidates interleave across workers.
    """

    cluster_id: int
    evaluations: List[CandidateEvaluation]
    best: ShapeCandidate
    runtime: float


@dataclass
class VPRSelection:
    """Shapes chosen for a design's clusters.

    Attributes:
        shapes: cluster id -> chosen shape (every cluster present;
            non-swept clusters get the uniform default).
        sweeps: The per-cluster sweep details for swept clusters.
        skipped_clusters: Eligible clusters not swept due to
            ``max_vpr_clusters`` (0 when the cap did not bind).
        runtime: Total wall-clock seconds.
    """

    shapes: Dict[int, ShapeCandidate]
    sweeps: List[VPRSweepResult] = field(default_factory=list)
    skipped_clusters: int = 0
    runtime: float = 0.0


# ----------------------------------------------------------------------
# The framework
# ----------------------------------------------------------------------
class VPRFramework:
    """Runs the V-P&R sweep of Figure 3."""

    #: Bounded cache sizes (clusters are a few hundred instances; the
    #: caps keep long dataset-generation runs from accumulating subs).
    _INDUCE_CACHE_MAX = 64
    _CONTEXT_CACHE_MAX = 16

    def __init__(
        self,
        config: Optional[VPRConfig] = None,
        checkpoint: Optional[CheckpointStore] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.config = config or VPRConfig()
        #: Optional checkpoint store; when set, every completed
        #: (cluster, candidate) evaluation is persisted and reused.
        self.checkpoint = checkpoint
        #: Optional cross-run evaluation cache; when set, evaluations
        #: whose content address matches a stored entry are served from
        #: disk instead of re-running place + route.
        self.cache = cache
        #: Optional override for how a fleet sweep builds its
        #: executor (``() -> SweepExecutor``).  Benchmarks and tests
        #: use it to inject a pre-configured fleet (e.g. with per-worker
        #: fault-injection environments); None builds from the config.
        self.executor_factory: Optional[Callable] = None
        # Both memos are keyed by object identity (the induce memo also
        # by the source's structure key), so each entry holds the object
        # it is keyed by: an id() is only unique among live objects.
        self._induce_cache: "OrderedDict[tuple, Tuple[Design, Design, float]]" = OrderedDict()
        self._contexts: "OrderedDict[int, _SubContext]" = OrderedDict()

    # -- sub-netlist cache ---------------------------------------------
    def induce(
        self, source: Design, member_indices: Sequence[int]
    ) -> Tuple[Design, float]:
        """Induce (or fetch the cached) sub-netlist for a cluster.

        Returns ``(sub, cell_area)``.  The cache key is the source's
        :meth:`~repro.netlist.design.Design.structure_key` plus the exact
        member tuple, so each cluster is extracted once and reused by
        all shape candidates and any later caller (ML features,
        L-shape sweeps, dataset labelling), and an edit of the source
        (a ``replace_master`` too) re-keys it.
        """
        key = (
            id(source),
            source.structure_key(),
            tuple(int(i) for i in member_indices),
        )
        entry = self._induce_cache.get(key)
        if entry is not None:
            self._induce_cache.move_to_end(key)
            obs.count("vpr.subnetlist.hit")
            _source, sub, cell_area = entry
            return sub, cell_area
        obs.count("vpr.subnetlist.miss")
        with obs.stage("vpr.extract"):
            sub = extract_subnetlist(source, member_indices)
        # Python's sum in member order (compensated on 3.12+), as before.
        areas = source.arrays().inst_area[np.asarray(member_indices, dtype=np.int64)]
        cell_area = sum(areas.tolist())
        self._induce_cache[key] = (source, sub, cell_area)
        if len(self._induce_cache) > self._INDUCE_CACHE_MAX:
            self._induce_cache.popitem(last=False)
        return sub, cell_area

    def _context_of(self, sub: Design) -> _SubContext:
        """Cached per-sub evaluation context (rebuilt on mutation)."""
        key = id(sub)
        ctx = self._contexts.get(key)
        if ctx is None or ctx.structure_key != sub.structure_key():
            ctx = self._contexts[key] = _SubContext(sub)
            if len(self._contexts) > self._CONTEXT_CACHE_MAX:
                self._contexts.popitem(last=False)
        self._contexts.move_to_end(key)
        return ctx

    # -- evaluation ----------------------------------------------------
    def evaluate_candidates(
        self,
        sub: Design,
        cell_area: float,
        candidates: Sequence[ShapeCandidate],
        cluster_id: Optional[int] = None,
    ) -> List[CandidateEvaluation]:
        """Place + route the sub-netlist on each candidate's virtual die
        and compute Cost_HPWL / Cost_Congestion (Eqs. 4-5).

        The candidates are placed as one lockstep batch (one stacked
        problem, one :class:`GlobalPlacer` run), the validly placed
        ones routed as one stack (one :class:`GlobalRouter` run over
        the placer's ``(K, n)`` rows, each on its own grid) and scored
        in the order given; the sub-netlist itself is never written.  A
        candidate's costs do not depend on its batch, so any split of a
        cluster's grid into calls yields the same 20 evaluations.  One
        whose placement or route broke down numerically comes back
        invalid (``error`` set, NaN costs) without disturbing the rest.

        The per-iteration placer/router QoR streams are muted here
        (hundreds of virtual dies would drown the flow-level
        convergence curves); each candidate's own span and final costs
        are recorded instead.
        """
        config = self.config
        if not candidates:
            return []
        ctx = self._context_of(sub)
        dies = [_virtual_die(len(sub.ports), cell_area, c) for c in candidates]
        with obs.stage("vpr.place"):
            problem = ctx.placement_problem(dies)
            placements = GlobalPlacer(
                problem,
                PlacerConfig(
                    max_iterations=config.placer_iterations,
                    min_iterations=2,
                    target_overflow=0.15,
                    telemetry=None,
                    seed=config.seed,
                ),
            ).run()
        # One stacked route over the rows whose placement is valid.
        routable = [row for row, placed in enumerate(placements) if not placed.error]
        with obs.stage("vpr.route"):
            grids = [
                GCellGrid.for_floorplan(dies[row][0], ROUTE_TARGET_CELLS)
                for row in routable
            ]
            router = GlobalRouter(
                sub, grids, x=problem.x[routable], y=problem.y[routable],
                telemetry_prefix=None,
            )
            routing_of = dict(zip(routable, router.run()))
        evaluations = []
        for row, (candidate, die, placed) in enumerate(
            zip(candidates, dies, placements)
        ):
            span_attrs = {"ar": candidate.aspect_ratio, "util": candidate.utilization}
            if cluster_id is not None:
                span_attrs["cluster"] = cluster_id
            with obs.stage("vpr.candidate", **span_attrs):
                routing = routing_of.get(row)
                error = routing.error if routing else placed.error
                if error is not None:
                    evaluations.append(
                        CandidateEvaluation(
                            candidate, float("nan"), float("nan"), error=error
                        )
                    )
                    continue
                with obs.stage("vpr.score"):
                    hpwl_avg = ctx.mean_hpwl(problem.x[row], problem.y[row])
                    fp = die[0]
                    hpwl_cost = hpwl_avg / max(fp.core_width + fp.core_height, 1e-9)
                    congestion_cost = routing.top_percent_congestion(config.top_x_percent)
            obs.count("vpr.candidates_evaluated")
            evaluations.append(
                CandidateEvaluation(
                    candidate=candidate,
                    hpwl_cost=hpwl_cost,
                    congestion_cost=congestion_cost,
                )
            )
        return evaluations

    def evaluate_candidate(
        self,
        sub: Design,
        cell_area: float,
        candidate: ShapeCandidate,
        cluster_id: Optional[int] = None,
    ) -> CandidateEvaluation:
        """:meth:`evaluate_candidates` for one shape; a numerical
        breakdown raises instead of returning an invalid evaluation."""
        (evaluation,) = self.evaluate_candidates(
            sub, cell_area, [candidate], cluster_id=cluster_id
        )
        if evaluation.error is not None:
            raise FloatingPointError(evaluation.error)
        return evaluation

    def _best_of(
        self,
        evaluations: List[CandidateEvaluation],
        cluster_id: Optional[int] = None,
    ) -> CandidateEvaluation:
        """Lowest Total Cost among *valid* candidates via one vectorized
        argmin (first wins on ties, matching ``min()``).

        Invalid candidates (terminal failures, non-finite costs) are
        excluded from the comparison — a NaN cost would lose every
        ``<`` and silently vanish from selection.  Raises
        :class:`VPRSweepError` when no valid candidate remains.
        """
        delta = self.config.delta
        totals = np.full(len(evaluations), np.inf)
        for i, evaluation in enumerate(evaluations):
            if evaluation.is_valid:
                total = evaluation.total(delta)
                if math.isfinite(total):
                    totals[i] = total
        if not np.isfinite(totals).any():
            details = "; ".join(
                f"{e.candidate}: {e.error or 'non-finite cost'}"
                for e in evaluations
            )
            where = f"cluster {cluster_id}" if cluster_id is not None else "cluster"
            raise VPRSweepError(
                f"{where}: all {len(evaluations)} shape candidates failed "
                f"terminally; no valid V-P&R cost to select from ({details})"
            )
        return evaluations[int(np.argmin(totals))]

    def _record_sweep(self, sweep: VPRSweepResult) -> None:
        """Per-candidate cost streams for one finished sweep.

        Always recorded in the sweep's own process, in candidate
        order, so every executor produces byte-identical streams
        regardless of worker scheduling.  Invalid candidates are not
        observed (their failure already produced a ``vpr.item.failed``
        event).
        """
        delta = self.config.delta
        for evaluation in sweep.evaluations:
            if not evaluation.is_valid:
                continue
            obs.observe("vpr.total_cost", evaluation.total(delta))
            obs.observe("vpr.hpwl_cost", evaluation.hpwl_cost)
            obs.observe("vpr.congestion_cost", evaluation.congestion_cost)

    # -- content addresses (what the stores key an item by) -----------
    def cluster_digest(
        self, source: Design, member_indices: Sequence[int]
    ) -> Tuple[str, float]:
        """``(content digest, cell area)`` of one cluster's sub-netlist.

        Served from the induce/context memos when the cluster was just
        swept, so calling this right after a sweep is nearly free.  The
        flow persists these per eligible cluster so the ECO path can
        address unchanged clusters' cache entries without re-inducing
        their sub-netlists.
        """
        sub, cell_area = self.induce(source, member_indices)
        return self._context_of(sub).digest(), cell_area

    def _cache_key(
        self, sub: Design, cell_area: float, candidate_index: int
    ) -> str:
        """One (cluster, candidate) item's content address."""
        return cache_key(
            self._context_of(sub).digest(),
            self.config.candidates[candidate_index],
            self.config,
            cell_area=cell_area,
        )

    # -- the sweep -------------------------------------------------------
    def sweep_cluster(
        self, source: Design, member_indices: Sequence[int], cluster_id: int = 0
    ) -> VPRSweepResult:
        """Evaluate all shape candidates for one cluster:
        :meth:`sweep_clusters` over a single id."""
        (sweep,) = self.sweep_clusters(
            source, {cluster_id: member_indices}, [cluster_id]
        )
        return sweep

    def sweep_clusters(
        self,
        source: Design,
        members: Sequence[Sequence[int]],
        cluster_ids: Sequence[int],
    ) -> List[VPRSweepResult]:
        """Sweep several clusters, one result per id in order, through
        :func:`repro.core.sweep.sweep_clusters`: evaluations and
        selected shapes are identical whatever store served an item
        and whichever executor ran it."""
        from repro.core import sweep  # the scheduler builds on this module

        return sweep.sweep_clusters(self, source, members, cluster_ids)


# ----------------------------------------------------------------------
# Shape selectors (Table 6 arms)
# ----------------------------------------------------------------------
class ShapeSelector:
    """Chooses a shape per cluster.  Subclasses implement select()."""

    name = "base"

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        """Return shapes for every cluster."""
        raise NotImplementedError

    def identity(self) -> Optional[Dict[str, object]]:
        """What, besides the run's ``VPRConfig``, fixes this selector's
        output, as JSON: it joins the flow's ``vpr`` stage key.  None
        (the default) means no stable identity — the selector's stage
        records then stay in the run's own checkpoint and are never
        shared through the cache."""
        return None


class UniformShapeSelector(ShapeSelector):
    """Every cluster gets AR = 1.0, utilization = 0.9 (Table 6
    "Uniform")."""

    name = "uniform"

    def identity(self) -> Optional[Dict[str, object]]:
        return {"name": self.name}

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        shape = uniform_shape()
        return VPRSelection(shapes={c: shape for c in range(len(members))})


class RandomShapeSelector(ShapeSelector):
    """Random candidate per cluster (Table 6 "Random")."""

    name = "random"

    def __init__(self, seed: int = 0, candidates: Optional[List[ShapeCandidate]] = None):
        self.seed = seed
        self.candidates = candidates or default_candidate_grid()

    def identity(self) -> Optional[Dict[str, object]]:
        return {
            "name": self.name,
            "seed": self.seed,
            "candidates": [[c.aspect_ratio, c.utilization] for c in self.candidates],
        }

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        # A fresh stream per call: the draw is a function of the seed.
        rng = random.Random(self.seed)
        shapes = {c: rng.choice(self.candidates) for c in range(len(members))}
        return VPRSelection(shapes=shapes)


class VPRShapeSelector(ShapeSelector):
    """Exact V-P&R: 20 place-and-route runs per eligible cluster."""

    name = "vpr"

    def __init__(
        self,
        config: Optional[VPRConfig] = None,
        checkpoint: Optional[CheckpointStore] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.framework = VPRFramework(config, checkpoint=checkpoint, cache=cache)

    def identity(self) -> Optional[Dict[str, object]]:
        return {"name": self.name}

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        eligible, skipped = self.framework.config.swept_clusters(members)
        shapes: Dict[int, ShapeCandidate] = {
            c: uniform_shape() for c in range(len(members))
        }
        with obs.stage(
            "vpr.select", selector=self.name, clusters=len(eligible)
        ) as stage:
            sweeps = self.framework.sweep_clusters(source, members, eligible)
        delta = self.framework.config.delta
        for sweep in sweeps:
            shapes[sweep.cluster_id] = sweep.best
            best_eval = next(
                e for e in sweep.evaluations if e.candidate == sweep.best
            )
            obs.event(
                "vpr.shape_selected",
                selector=self.name,
                cluster=sweep.cluster_id,
                ar=sweep.best.aspect_ratio,
                util=sweep.best.utilization,
                total_cost=best_eval.total(delta),
            )
        return VPRSelection(
            shapes=shapes,
            sweeps=sweeps,
            skipped_clusters=skipped,
            runtime=stage.elapsed,
        )


class MLShapeSelector(ShapeSelector):
    """ML-accelerated V-P&R: a trained predictor replaces the 20 P&R
    runs (the right-hand branch of Figure 3).

    Args:
        predictor: ``f(sub_design, candidates) -> np.ndarray`` of
            predicted Total Cost per candidate.  The GNN stack in
            :mod:`repro.ml` provides :class:`~repro.ml.model.TotalCostPredictor`.
        config: Eligibility / candidate grid (P&R knobs unused).
    """

    name = "vpr_ml"

    def __init__(
        self,
        predictor: Callable[[Design, Sequence[ShapeCandidate]], np.ndarray],
        config: Optional[VPRConfig] = None,
    ) -> None:
        self.predictor = predictor
        self.config = config or VPRConfig()
        self.framework = VPRFramework(self.config)

    def select(
        self, source: Design, members: Sequence[Sequence[int]]
    ) -> VPRSelection:
        framework = self.framework
        eligible, skipped = self.config.swept_clusters(members)
        shapes: Dict[int, ShapeCandidate] = {
            c: uniform_shape() for c in range(len(members))
        }
        with obs.stage(
            "vpr.ml_select", selector=self.name, clusters=len(eligible)
        ) as stage:
            for c in eligible:
                sub, _area = framework.induce(source, members[c])
                costs = np.asarray(self.predictor(sub, self.config.candidates))
                nonfinite = int((~np.isfinite(costs)).sum())
                if nonfinite:
                    # argmin would pick a NaN: the cluster keeps its
                    # uniform shape instead.
                    obs.count("vpr.ml.cost_nonfinite")
                    obs.event(
                        "vpr.ml.cost_nonfinite",
                        selector=self.name,
                        cluster=c,
                        candidates=nonfinite,
                    )
                    continue
                pick = int(np.argmin(costs))
                shapes[c] = self.config.candidates[pick]
                obs.observe("vpr.ml.predicted_cost", float(costs[pick]))
                obs.event(
                    "vpr.shape_selected",
                    selector=self.name,
                    cluster=c,
                    ar=shapes[c].aspect_ratio,
                    util=shapes[c].utilization,
                    predicted_cost=float(costs[pick]),
                )
        return VPRSelection(
            shapes=shapes,
            skipped_clusters=skipped,
            runtime=stage.elapsed,
        )
