"""Virtualized P&R (V-P&R) shape selection (Section 3.2, Figure 3).

For each large cluster, induce the sub-netlist (inter-cluster nets
become virtual IO ports), and for each of the 20 (aspect ratio,
utilization) candidates: build a virtual die, run placement and global
routing, and score

    Total Cost = Cost_HPWL + delta * Cost_Congestion          (Eq. 4-5)

with ``Cost_HPWL = HPWL_avg / (W_core + H_core)`` and
``Cost_Congestion`` the mean congestion of the top-X% GCells.  The
best-cost candidate becomes the cluster's shape in the cluster .lef.

Four shape selectors mirror the paper's Table 6 arms:

* :class:`VPRShapeSelector` — exact V-P&R (20 P&R runs per cluster),
* :class:`MLShapeSelector` — GNN-predicted Total Cost (the paper's
  ~30x acceleration),
* :class:`RandomShapeSelector` / :class:`UniformShapeSelector` — the
  ablation baselines.

Performance engine (this module is the flow's runtime bottleneck):

* Each cluster's sub-netlist is induced **once** and shared by all 20
  candidates (and, via :meth:`VPRFramework.induce`, by later callers —
  ML feature extraction, L-shape sweeps, dataset labelling).
* The candidates of a cluster are *placed* together
  (:meth:`VPRFramework.evaluate_candidates`): one stacked
  :class:`~repro.place.problem.PlacementProblem`, one lockstep
  :class:`~repro.place.placer.GlobalPlacer` run whose every round
  solves all candidates' x and y systems as one block-diagonal B2B/PCG
  system, then *routed* together (one stacked ``GlobalRouter`` run off
  the placer's coordinate rows) and scored one by one.  A candidate's
  costs are bit-identical whatever it is batched with, so inline
  sweeps (one batch per cluster), fleet chunks (one batch per run of
  same-cluster items), retries and resumed runs (whatever is missing)
  all agree.
* Placement, routing and scoring all read the sub's one flat form
  (``sub.arrays()``): the scoring pin/offset arrays are its memoised
  ``pin_vertex_csr``, reduced by :func:`repro.place.hpwl.hpwl_arrays`,
  so after :func:`extract_subnetlist` nothing here walks a net's pins;
  the best candidate is picked from a NumPy cost vector.
* The sweep is one loop (:meth:`VPRFramework.sweep_clusters`) over a
  :class:`~repro.core.fanout.SweepExecutor`: the calling process
  itself (``jobs == 1``) or a worker fleet (``jobs`` forked local
  workers, or external ones on ``fleet_listen``).  Results are gathered
  into slots indexed by (cluster, candidate), so the selected shapes
  and costs are identical whatever the executor and however its
  workers were scheduled; candidate evaluation is order-independent by
  construction (the placer re-initialises from its seed each run).
  Fleet workers receive the sweep state (config, and the induced
  sub-netlists as :mod:`repro.netlist.snapshot` payloads) **once**, as
  one pickled blob each, so a work item ships only its (cluster,
  candidate) indices; the inline executor works on the live objects.
* Stored results resolve first, in the sweep's own process, through
  one ordered list of stores keyed by one content address
  (sub-netlist digest, shape, config, cell area): the run's checkpoint,
  then — with an :class:`~repro.cache.EvaluationCache` attached — the
  cross-run cache.  The first store holding an item serves it,
  byte-identical to a fresh evaluation.  Only the misses become work
  items, so a worker is a pure function of (shipped state, item
  indices) and never sees a store (see ``docs/performance.md``).
* The :mod:`repro.perf` stage timers wrap every phase, so a perf
  report shows extract/place/route/score splits.

Fault tolerance (see ``docs/recovery.md``):

* A work item that fails or is lost on its executor (a whole
  executor that cannot run included) is re-run on the inline executor
  until it has had :data:`ATTEMPTS` attempts in the sweep's own
  process, then raises :class:`VPRSweepError`.  NaN costs never reach
  the argmin:
  :meth:`VPRFramework._best_of` selects over valid candidates only and
  raises when none remain.
* ``item_timeout`` bounds each work item in a fleet worker (SIGALRM),
  so one hung virtual-die P&R cannot stall the sweep.
* With a :class:`~repro.recovery.CheckpointStore` attached, each
  evaluation is durably persisted under its content address the moment
  it resolves, and already-checkpointed items are served from disk —
  the unit of resume after a mid-sweep crash.
"""

from __future__ import annotations

import itertools
import math
import random
import signal
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs, telemetry
from repro.cache import (
    EvaluationCache,
    cache_key,
    derive_cache_summary,
    netlist_digest,
)
from repro.core.fanout import (
    FleetExecutor,
    InlineExecutor,
    ItemOutcome,
    SweepExecutor,
    WorkerEnvelope,
)
from repro.core.shapes import ShapeCandidate, default_candidate_grid, uniform_shape
from repro.recovery import faults
from repro.recovery.checkpoint import CheckpointStore
from repro.netlist.design import Design, Floorplan, PinDirection
from repro.netlist.snapshot import design_from_snapshot, design_snapshot
from repro.place.placer import GlobalPlacer, PlacerConfig
from repro.place.problem import PlacementProblem
from repro.place.hpwl import hpwl_arrays
from repro.route.gcell import GCellGrid
from repro.route.global_route import GlobalRouter

#: GCell count of the virtual-die routing grid and margin around the
#: virtual core (microns).  Constants of the evaluation, hashed into
#: every cache key under these names (``VPRConfig.EVALUATION_CONSTANTS``).
ROUTE_TARGET_CELLS = 144
DIE_MARGIN = 1.0

#: Attempts a failed or lost work item gets in the sweep's own process
#: (an attempt in a worker process is not one of them) before it is
#: terminal.
ATTEMPTS = 2


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
# Sub-netlist extraction
# ----------------------------------------------------------------------
def extract_subnetlist(source: Design, member_indices: Sequence[int]) -> Design:
    """Induce the sub-netlist over a cluster's instances.

    Inter-cluster nets become virtual IO ports: an input port per
    external driver, an output port per net with external sinks
    (Figure 3's port creation rule).
    """
    members = set(int(i) for i in member_indices)
    sub = Design(f"{source.name}_sub")
    instance_map = {}
    for idx in sorted(members):
        inst = source.instances[idx]
        if inst.master.name not in sub.masters:
            sub.masters[inst.master.name] = inst.master
        new_inst = sub.add_instance(inst.name, inst.master)
        instance_map[idx] = new_inst

    nets_seen = set()
    port_counter = 0
    for idx in sorted(members):
        inst = source.instances[idx]
        for net in inst.pin_nets.values():
            if net.index in nets_seen or net.is_clock:
                continue
            nets_seen.add(net.index)
            internal_refs = []
            external_driver = False
            external_sink = False
            driver_internal = False
            for ref in net.pins():
                if ref.instance is not None and ref.instance.index in members:
                    internal_refs.append(ref)
                    if net.driver is ref:
                        driver_internal = True
                else:
                    if net.driver is ref:
                        external_driver = True
                    else:
                        external_sink = True
            if not internal_refs:
                continue
            if len(internal_refs) < 2 and not (external_driver or external_sink):
                continue
            new_net = sub.add_net(net.name)
            new_net.weight = net.weight
            for ref in internal_refs:
                sub.connect_instance_pin(
                    new_net, instance_map[ref.instance.index], ref.pin_name
                )
            if external_driver and not driver_internal:
                port_name = f"vin{port_counter}"
                port_counter += 1
                sub.add_port(port_name, PinDirection.INPUT)
                sub.connect_port(new_net, port_name)
            if external_sink and driver_internal:
                port_name = f"vout{port_counter}"
                port_counter += 1
                sub.add_port(port_name, PinDirection.OUTPUT)
                sub.connect_port(new_net, port_name)
    return sub


def _virtual_die(
    num_ports: int, cell_area: float, candidate: ShapeCandidate
) -> Tuple[Floorplan, np.ndarray, np.ndarray]:
    """The virtual die of a shape: its floorplan, and the IO ports'
    ``(x, y)`` spread evenly around the periphery in sorted port-name
    order (the OpenROAD pin-placer substitute)."""
    width, height = candidate.dimensions(max(cell_area, 1e-6))
    fp = Floorplan(
        die_width=width + 2 * DIE_MARGIN,
        die_height=height + 2 * DIE_MARGIN,
        core_margin=DIE_MARGIN,
        target_utilization=candidate.utilization,
    )
    perimeter = 2 * (fp.die_width + fp.die_height)
    t = (np.arange(num_ports) + 0.5) / max(num_ports, 1) * perimeter
    bottom = t < fp.die_width
    right = t < fp.die_width + fp.die_height
    top = t < 2 * fp.die_width + fp.die_height
    x = np.select(
        [bottom, right, top],
        [t, fp.die_width, t - fp.die_width - fp.die_height],
        0.0,
    )
    y = np.select(
        [bottom, right, top],
        [0.0, t - fp.die_width, fp.die_height],
        t - 2 * fp.die_width - fp.die_height,
    )
    return fp, x, y


def _configure_virtual_die(
    sub: Design, cell_area: float, candidate: ShapeCandidate
) -> None:
    """Size the sub-netlist's die for a shape and move its IO ports
    onto the periphery (see :func:`_virtual_die`)."""
    sub.floorplan, port_x, port_y = _virtual_die(
        len(sub.ports), cell_area, candidate
    )
    for name, x, y in zip(sorted(sub.ports), port_x.tolist(), port_y.tolist()):
        sub.ports[name].x, sub.ports[name].y = x, y


# ----------------------------------------------------------------------
# Per-sub-netlist evaluation context (cached between candidates)
# ----------------------------------------------------------------------
class _SubContext:
    """Candidate-independent artefacts of one sub-netlist.

    Twenty candidates share the placement problem (net→pin CSR, masks,
    areas, weights) and the content digest; only the core box and the
    port ring change between candidates.  Under B2B the Laplacian
    *pattern* is not among the shared things — its bound pins move with
    every linearisation — so there is no symbolic matrix to reuse.  A
    context is valid for one :meth:`Design.structure_key` — the key the
    sub's flat form is cached under: :meth:`VPRFramework._context_of`
    rebuilds it, problem and digest, after any structural mutation (the
    L-shape sweep's temporary blockage, a count-preserving reconnect).
    """

    __slots__ = ("sub", "structure_key", "problem", "_digest")

    def __init__(self, sub: Design) -> None:
        self.sub = sub
        self.structure_key = sub.structure_key()
        self.problem: Optional[PlacementProblem] = None
        self._digest: Optional[str] = None

    def placement_problem(
        self, dies: Sequence[Tuple[Floorplan, np.ndarray, np.ndarray]]
    ) -> PlacementProblem:
        """The shared placement problem, stacked over virtual dies."""
        if self.problem is None:
            self.problem = PlacementProblem(self.sub)
        floorplans, port_x, port_y = zip(*dies)
        self.problem.stack_dies(floorplans, np.array(port_x), np.array(port_y))
        return self.problem

    def digest(self) -> str:
        """Content digest of the sub-netlist (the netlist part of its
        items' cache addresses), hashed on first use."""
        if self._digest is None:
            with obs.stage("vpr.cache_key"):
                self._digest = netlist_digest(self.sub)
        return self._digest

    def mean_hpwl(self, x: np.ndarray, y: np.ndarray) -> float:
        """Average net HPWL over one system's final coordinates: every
        net of two or more pins, duplicate same-instance pins kept (they
        cannot change a span) — :func:`repro.place.hpwl.net_hpwl`
        semantics, off the sub's cached flat form."""
        pin_vertex, offsets, nets = self.sub.arrays().pin_vertex_csr(
            include_clock=True
        )
        if not len(nets):
            return 0.0
        return hpwl_arrays(pin_vertex, offsets, x, y) / len(nets)


def _stored_evaluation(
    candidate: ShapeCandidate, record: dict
) -> Tuple["CandidateEvaluation", float]:
    """``(evaluation, original seconds)`` of a record a store served
    (both stores hand out finite-cost records only)."""
    evaluation = CandidateEvaluation(
        candidate=candidate,
        hpwl_cost=float(record["hpwl_cost"]),
        congestion_cost=float(record["congestion_cost"]),
    )
    return evaluation, float(record.get("seconds", 0.0))


def _item_record(evaluation: "CandidateEvaluation", seconds: float) -> dict:
    """The persisted form of one finished item (checkpoint and cache)."""
    return {
        "ar": evaluation.candidate.aspect_ratio,
        "util": evaluation.candidate.utilization,
        "hpwl_cost": evaluation.hpwl_cost,
        "congestion_cost": evaluation.congestion_cost,
        "seconds": seconds,
    }


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
        self.executor_factory: Optional[Callable[[], SweepExecutor]] = None
        # Both memos are keyed by object identity, so each entry holds
        # the object it is keyed by: an id() is only unique among live
        # objects.
        self._induce_cache: "OrderedDict[tuple, Tuple[Design, Design, float]]" = OrderedDict()
        self._contexts: "OrderedDict[int, _SubContext]" = OrderedDict()

    # -- sub-netlist cache ---------------------------------------------
    def induce(
        self, source: Design, member_indices: Sequence[int]
    ) -> Tuple[Design, float]:
        """Induce (or fetch the cached) sub-netlist for a cluster.

        Returns ``(sub, cell_area)``.  The cache key is the exact
        member tuple, so each cluster is extracted once and reused by
        all shape candidates and any later caller (ML features,
        L-shape sweeps, dataset labelling).
        """
        key = (id(source), tuple(int(i) for i in member_indices))
        entry = self._induce_cache.get(key)
        if entry is not None:
            self._induce_cache.move_to_end(key)
            obs.count("vpr.subnetlist.hit")
            _source, sub, cell_area = entry
            return sub, cell_area
        obs.count("vpr.subnetlist.miss")
        with obs.stage("vpr.extract"):
            sub = extract_subnetlist(source, member_indices)
        cell_area = sum(source.instances[i].area for i in member_indices)
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

    # -- stored results: the run's checkpoint, then the shared cache ---
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
        return cache_key(
            self._context_of(sub).digest(),
            self.config.candidates[candidate_index],
            self.config,
            cell_area=cell_area,
        )

    def _stores(self) -> list:
        """The stores a sweep resolves through, in order: the run's own
        checkpoint (strict, durable), then the shared cache (lossy)."""
        return [s for s in (self.checkpoint, self.cache) if s is not None]

    def _lookup(
        self, sub: Design, cell_area: float, cluster_id: int, candidate_index: int
    ) -> Tuple[Optional[CandidateEvaluation], float, int]:
        """``(evaluation, original seconds, position)`` from the first
        store, in :meth:`_stores` order, holding this item's content
        address; ``(None, 0.0, len(stores))`` when none does.

        Each store counts its own traffic; a cache probe also emits a
        ``cache.hit`` / ``cache.miss`` event so run reports attribute
        reuse per (cluster, candidate).
        """
        stores = self._stores()
        key = self._cache_key(sub, cell_area, candidate_index) if stores else None
        for position, store in enumerate(stores):
            record = store.get(key)
            if store is self.cache:
                obs.event(
                    "cache.miss" if record is None else "cache.hit",
                    cluster=cluster_id,
                    candidate=candidate_index,
                    key=key,
                )
            if record is not None:
                candidate = self.config.candidates[candidate_index]
                return (*_stored_evaluation(candidate, record), position)
        return None, 0.0, len(stores)

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
        """Sweep several clusters: one loop, whatever the executor.

        Items the checkpoint or the cache holds are served from disk,
        here, in this process; what is left is chunked and handed to a
        :class:`SweepExecutor` — the calling process itself
        (``jobs == 1``) or a worker fleet — and when nothing is left no
        executor is built at all.  What fails or is lost there goes
        back through the same code on the inline executor
        (:meth:`_sweep_on`), every resolved item lands through
        :meth:`_settle` (the one write-back site), and results sit in
        (cluster, candidate) slots, so evaluations and selected shapes
        are identical whichever executor ran and however its workers
        were scheduled.
        """
        config = self.config
        cluster_ids = list(cluster_ids)
        total = len(cluster_ids) * len(config.candidates)
        fans_out = bool(cluster_ids) and (
            config.jobs > 1 or config.fleet_listen is not None
        )
        make_executor = self._make_executor if fans_out else InlineExecutor
        # Every executor advances the same progress task per (cluster,
        # candidate) item, so the final accounting record does not
        # depend on where the items ran.
        obs.start_task("vpr.items", total, unit="items")
        cache_baseline = self._cache_session_baseline()
        try:
            clusters = {c: self.induce(source, members[c]) for c in cluster_ids}
            slots = self._sweep_on(make_executor, clusters)
            sweeps: List[VPRSweepResult] = []
            for c in cluster_ids:
                evaluations = [evaluation for evaluation, _s in slots[c]]
                best = self._best_of(evaluations, cluster_id=c)
                sweep = VPRSweepResult(
                    cluster_id=c,
                    evaluations=evaluations,
                    best=best.candidate,
                    runtime=sum(seconds for _e, seconds in slots[c]),
                )
                self._record_sweep(sweep)
                sweeps.append(sweep)
            return sweeps
        finally:
            obs.complete("vpr.items")
            self._publish_cache_summary(cache_baseline)

    def _make_executor(self) -> SweepExecutor:
        """Build the configured fleet (or the injected executor).  An
        unbindable port is an OSError."""
        if self.executor_factory is not None:
            return self.executor_factory()
        config = self.config
        return FleetExecutor(
            workers=config.jobs,
            listen=config.fleet_listen,
            item_timeout=config.item_timeout,
        )

    def _sweep_state(
        self, executor: SweepExecutor, clusters: Dict[int, Tuple[Design, float]]
    ) -> dict:
        """What the chunk evaluator (:func:`_evaluate_chunk`) works on.

        In process that is this framework and the live sub-netlists.
        Across a process boundary it is a payload each worker receives
        **once** (one digest-keyed pickled blob), so a work item ships
        only two integers.  Each sub travels as a snapshot of its flat
        form, built here in the parent (the linked Design graph
        recurses past the pickle limit on real netlists), so no worker
        walks a netlist.  Neither store is part of it: workers only
        compute.
        """
        config = self.config
        if not executor.crosses_process:
            return {"_framework": self, "config": config, "clusters": clusters}
        return {
            "config": config,
            "clusters": {
                c: (design_snapshot(sub), area)
                for c, (sub, area) in clusters.items()
            },
            "item_timeout": executor.item_timeout,
            "obs": obs.worker_descriptor(),
        }

    def _sweep_on(
        self,
        make_executor: Callable[[], SweepExecutor],
        clusters: Dict[int, Tuple[Design, float]],
    ) -> Dict[int, List[Tuple[CandidateEvaluation, float]]]:
        """Resolve every (cluster, candidate) item of ``clusters``:
        from the stores (:meth:`_lookup`), what none holds on one
        executor, and what fails or is lost there on the inline
        executor, pass after pass, until each item has had
        :data:`ATTEMPTS` attempts in this process; returns
        ``(evaluation, seconds)`` slots; the only place a sweep probes a
        store.  An executor that cannot run (:class:`OSError` building
        it or from its ``map_chunks``) loses only the items it has not
        returned; an OSError raised here (a store write) propagates."""
        config = self.config
        n_cand = len(config.candidates)
        slots: Dict[int, list] = {c: [None] * n_cand for c in clusters}
        pending: List[Tuple[int, int]] = []
        for c, (sub, cell_area) in clusters.items():
            for k in range(n_cand):
                evaluation, seconds, position = self._lookup(sub, cell_area, c, k)
                if evaluation is None:
                    pending.append((c, k))
                else:
                    self._settle(clusters, slots, c, k, evaluation, seconds, position)
        if not pending:
            return slots
        inline = InlineExecutor()
        try:
            executor = make_executor()
        except OSError as exc:
            _executor_failed(exc)
            executor = inline
        # Bundle work items into chunks so one dispatch amortises the
        # per-task submission/result overhead over several.
        chunk_size = config.chunk_size or executor.auto_chunk_size(
            len(pending), n_cand
        )
        with obs.stage(
            "vpr.sweep",
            executor=executor.name,
            jobs=executor.width(),
            items=len(clusters) * n_cand,
            chunk_size=chunk_size,
        ):
            try:
                failed = self._collect(executor, clusters, slots, pending, chunk_size)
            finally:
                executor.close()
            for c, k, error in failed:
                obs.count("vpr.worker.error")
                obs.event("worker.error", cluster=c, candidate=k, error=error)
            # An inline attempt is one of the item's ATTEMPTS in this
            # process; an attempt in a worker process is not.
            tried = 0 if executor.crosses_process else 1
            while failed:
                if tried == ATTEMPTS:
                    for c, k, error in failed:
                        obs.count("vpr.item.terminal")
                        obs.event(
                            "vpr.item.failed", cluster=c, candidate=k,
                            attempts=ATTEMPTS, error=error,
                        )
                    c, k, error = min(failed)
                    raise VPRSweepError(
                        f"V-P&R evaluation of cluster {c}, candidate {k} "
                        f"({config.candidates[k]}) failed after {ATTEMPTS} "
                        f"attempt(s): {error}"
                    )
                if tried:
                    for c, k, _error in failed:
                        obs.count("vpr.item.retry")
                        obs.event(
                            "vpr.item.retry", cluster=c, candidate=k, attempt=tried
                        )
                failed = self._collect(
                    inline, clusters, slots, [(c, k) for c, k, _e in failed],
                    config.chunk_size or n_cand,
                )
                tried += 1
        return slots

    def _collect(
        self,
        executor: SweepExecutor,
        clusters: Dict[int, Tuple[Design, float]],
        slots: Dict[int, list],
        items: List[Tuple[int, int]],
        chunk_size: int,
    ) -> List[Tuple[int, int, str]]:
        """One attempt at each of ``items`` on ``executor``: settle
        what succeeds, return what failed or was lost as ``(cluster,
        candidate, error)``."""
        config = self.config
        chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
        resolved = executor.map_chunks(
            self._sweep_state(executor, clusters), chunks, _evaluate_chunk
        )
        if executor.crosses_process:
            resolved = _until_executor_fails(resolved, chunks)
        failed: List[Tuple[int, int, str]] = []
        for index, outcomes in resolved:
            for (c, k), outcome in zip(chunks[index], outcomes):
                faults.check("vpr.collect", key=f"{c}/{k}")
                if outcome.envelope is not None:
                    # A crashed item still contributes the partial counters
                    # and spans its worker recorded up to the failure point.
                    obs.merge_worker(outcome.envelope.recorded)
                if outcome.error is not None:
                    failed.append((c, k, outcome.error))
                    continue
                evaluation = CandidateEvaluation(
                    config.candidates[k], outcome.hpwl_cost, outcome.congestion_cost
                )
                self._settle(clusters, slots, c, k, evaluation, outcome.seconds)
        return failed

    def _settle(
        self,
        clusters: Dict[int, Tuple[Design, float]],
        slots: Dict[int, list],
        c: int,
        k: int,
        evaluation: CandidateEvaluation,
        seconds: float,
        served_by: Optional[int] = None,
    ) -> None:
        """The one write-back site: a resolved item takes its slot and
        is written to every store ahead of ``served_by``, the position
        of the store that served it — all of them when it was computed
        (None), the checkpoint only after a cache hit, nowhere after a
        checkpoint hit.  An invalid evaluation is persisted nowhere."""
        slots[c][k] = (evaluation, seconds)
        ahead = self._stores()[:served_by]
        if ahead and evaluation.is_valid:
            sub, cell_area = clusters[c]
            key = self._cache_key(sub, cell_area, k)
            record = _item_record(evaluation, seconds)
            for store in ahead:
                store.put(key, record)
        obs.advance("vpr.items")

    # -- end-of-sweep cache summary ------------------------------------
    def _cache_session_baseline(self) -> Optional[Tuple[int, int, int]]:
        """Snapshot of the cache's session counters before a sweep."""
        cache = self.cache
        if cache is None:
            return None
        return (
            cache.session_hits, cache.session_misses, cache.session_stores
        )

    def _publish_cache_summary(
        self, baseline: Optional[Tuple[int, int, int]]
    ) -> None:
        """Fold this sweep's cache traffic into the store's lifetime
        totals and emit one ``vpr.cache.summary`` telemetry event with
        the derived hit ratio and bytes-on-disk (the same summary shape
        ``repro cache stats`` and the serve daemon's ``/stats`` report).
        """
        cache = self.cache
        if cache is None or baseline is None:
            return
        hits = cache.session_hits - baseline[0]
        misses = cache.session_misses - baseline[1]
        stores = cache.session_stores - baseline[2]
        if not (hits or misses or stores):
            return
        try:
            cache.bump_totals(hits=hits, misses=misses, stores=stores)
            if telemetry.is_enabled():
                # cache.stats() walks the store: only for a listener.
                obs.event(
                    "vpr.cache.summary",
                    **derive_cache_summary(hits, misses, stores, cache.stats()),
                )
        except OSError:  # pragma: no cover - summary is best-effort
            return

# ----------------------------------------------------------------------
# The chunk evaluator (every executor runs this) and worker set-up
# ----------------------------------------------------------------------
def _executor_failed(exc: OSError) -> None:
    """Record that the sweep's executor could not run (once a sweep)."""
    obs.count("vpr.executor.fallback")
    obs.event("vpr.executor_fallback", executor="fleet", error=repr(exc))


def _until_executor_fails(
    resolved: Iterator[Tuple[int, List[ItemOutcome]]],
    chunks: Sequence[Sequence[Tuple[int, int]]],
) -> Iterator[Tuple[int, List[ItemOutcome]]]:
    """An executor's ``(chunk_index, outcomes)`` pairs, then, should
    its iteration raise :class:`OSError`, lost outcomes for every chunk
    it has not returned.  What the consumer raises is not caught."""
    returned = set()
    try:
        for index, outcomes in resolved:
            returned.add(index)
            yield index, outcomes
    except OSError as exc:
        _executor_failed(exc)
        for index, chunk in enumerate(chunks):
            if index not in returned:
                yield index, [ItemOutcome.lost(repr(exc))] * len(chunk)


@contextmanager
def _item_alarm(timeout: Optional[float]):
    """Bound a work item's wall-clock via SIGALRM (worker processes
    only — they run their items on the main thread, where signal
    delivery is guaranteed; the inline executor passes no timeout and
    never gets here).

    Nests correctly: a caller's pending ``ITIMER_REAL`` is captured on
    entry (``setitimer`` returns the old value) and re-armed on exit
    with the elapsed time deducted, so an outer timeout keeps ticking
    instead of being silently cancelled.  An outer timer that would
    have expired while this one was armed fires immediately after the
    outer handler is restored.
    """
    if not timeout or timeout <= 0:
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(f"V-P&R item exceeded item_timeout={timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outer_delay, outer_interval = signal.setitimer(
        signal.ITIMER_REAL, timeout
    )
    armed_at = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay > 0.0:
            remaining = outer_delay - (time.monotonic() - armed_at)
            # Already-overdue outer timers get an epsilon delay (zero
            # would disarm the timer entirely).
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), outer_interval
            )


def _setup_worker(state: dict) -> None:
    """Set up a worker process's global state and the sweep payload it
    received: each sub is rebuilt from its snapshot once per worker,
    flat form included."""
    # From here on this process records only its own activity, in the
    # outputs the parent has on.
    obs.adopt_worker(state["obs"])
    state["clusters"] = {
        c: (design_from_snapshot(sub), area)
        for c, (sub, area) in state["clusters"].items()
    }
    state["_framework"] = VPRFramework(state["config"])
    state["_worker"] = True


def _cluster_run_worker(
    state: dict, cluster_id: int, indices: Sequence[int]
) -> List[ItemOutcome]:
    """Evaluate a run of one cluster's work items: one attempt at
    each, in the calling process (inline) or a worker process.

    Per item, first, the ``vpr.item`` fault site fires.  The items
    left are evaluated as one lockstep batch; if the batch raises they
    are evaluated one by one — still the same attempt — so
    exceptions stay contained per item: a failed item reports ``error``
    with NaN costs instead of poisoning its batch-mates.  Nothing here
    reads or writes a store (stored items never become work items;
    :meth:`VPRFramework._settle` does the writing).  In a worker process
    (``state["item_timeout"]``) each of those steps runs under the
    item's own SIGALRM timeout, the batch under the timeout times its
    size, and the counters and telemetry the whole run recorded (also
    up to a failure) ride back on its first item as a
    :class:`WorkerEnvelope`.
    """
    framework: VPRFramework = state["_framework"]
    sub, cell_area = state["clusters"][cluster_id]
    candidates = state["config"].candidates
    item_timeout = state.get("item_timeout")
    heartbeat = state.get("_heartbeat")

    def outcome_of(evaluation, seconds):
        return ItemOutcome(
            evaluation.hpwl_cost,
            evaluation.congestion_cost,
            seconds,
            evaluation.error,
        )

    def contained(call):
        """``call()`` under the item timeout; a raise becomes an error
        outcome."""
        start = time.perf_counter()
        try:
            with _item_alarm(item_timeout):
                return call()
        except Exception as exc:
            return ItemOutcome.lost(repr(exc), time.perf_counter() - start)

    def admit(k):
        """The item's fault site; None admits it to the batch."""
        faults.check("vpr.item", key=f"{cluster_id}/{k}")

    def alone(k):
        start = time.perf_counter()
        evaluation = framework.evaluate_candidate(
            sub, cell_area, candidates[k], cluster_id=cluster_id
        )
        return outcome_of(evaluation, time.perf_counter() - start)

    outcome: Dict[int, Optional[ItemOutcome]] = {}
    for k in indices:
        if heartbeat is not None:
            heartbeat.beat("start", item=f"{cluster_id}/{k}")
        outcome[k] = contained(lambda: admit(k))
    batch = [k for k in indices if outcome[k] is None]
    if batch:
        start = time.perf_counter()
        try:
            with _item_alarm((item_timeout or 0) * len(batch)):
                faults.check("vpr.batch", key=cluster_id)
                evaluations = framework.evaluate_candidates(
                    sub,
                    cell_area,
                    [candidates[k] for k in batch],
                    cluster_id=cluster_id,
                )
        except Exception:
            for k in batch:
                outcome[k] = contained(lambda: alone(k))
        else:
            seconds = (time.perf_counter() - start) / len(batch)
            for k, evaluation in zip(batch, evaluations):
                outcome[k] = outcome_of(evaluation, seconds)

    results = [outcome[k] for k in indices]
    if heartbeat is not None:
        for k, result in zip(indices, results):
            heartbeat.beat(
                "done", item=f"{cluster_id}/{k}", error=result.error
            )
    if state.get("_worker"):
        results[0] = results[0]._replace(
            envelope=WorkerEnvelope(obs.worker_payload())
        )
    return results


def _evaluate_chunk(
    state: dict, items: Sequence[Tuple[int, int]]
) -> List[ItemOutcome]:
    """Evaluate a chunk of (cluster, candidate) items on sweep state
    (:meth:`VPRFramework._sweep_state`): each run of same-cluster items
    is one lockstep batch.  Chunking only changes scheduling
    granularity, never results."""
    results: List[ItemOutcome] = []
    for cluster_id, run in itertools.groupby(items, key=lambda item: item[0]):
        results.extend(
            _cluster_run_worker(state, cluster_id, [k for _c, k in run])
        )
    return results


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
            best_eval = self.framework._best_of(
                sweep.evaluations, cluster_id=sweep.cluster_id
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
