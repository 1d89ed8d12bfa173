"""End-to-end flows: Algorithm 1 plus the paper's baselines.

* :class:`ClusteredPlacementFlow` — the paper's flow: PPA-aware
  clustering (or an ablation clusterer), V-P&R shape selection,
  seeded placement, then CTS + routing + post-route STA/power.
* :func:`default_flow` — the "Default" arm of Tables 2-4: flat global
  placement, same evaluation.
* :func:`blob_placement_flow` — the [9] baseline of Table 2: Louvain
  clusters, 4x IO weights, seeded placement, no V-P&R.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.cache import EvaluationCache, StoreChain, input_key, stage_key
from repro.cluster.best_choice import best_choice_clustering
from repro.cluster.edge_coarsening import edge_coarsening
from repro.cluster.fc import FirstChoiceConfig, first_choice_clustering
from repro.cluster.graph import AdjacencyGraph
from repro.cluster.leiden import leiden_communities
from repro.cluster.louvain import louvain_communities
from repro.core.clustered_netlist import build_clustered_netlist
from repro.core.metrics import PPAMetrics
from repro.core.ppa_clustering import (
    ClusteringResult,
    PPAClusteringConfig,
    ppa_aware_clustering,
)
from repro.core.seeded import (
    IO_NET_WEIGHT,
    SeededPlacementConfig,
    capture_placement_state,
    restore_placement_state,
    seeded_placement,
)
from repro.core.stages import encode_stage, stage_decoder
from repro.core.vpr import (
    ShapeSelector,
    UniformShapeSelector,
    VPRConfig,
    VPRSelection,
    VPRShapeSelector,
)
from repro.db.database import DesignDatabase
from repro.recovery import CheckpointStore, faults
from repro.netlist.arrays import NetlistArrays
from repro.netlist.design import Design, Floorplan
from repro.netlist.snapshot import design_snapshot
from repro.place.placer import GlobalPlacer, PlacerConfig
from repro.place.problem import PlacementProblem
from repro.place.hpwl import hpwl
from repro.route.cts import synthesize_clock_tree
from repro.route.global_route import GlobalRouter
from repro.sta.activity import propagate_activity
from repro.sta.analysis import TimingAnalyzer
from repro.sta.delay import RoutedWireModel
from repro.sta.graph import timing_graph_for
from repro.sta.hold import analyze_hold
from repro.sta.power import analyze_power


#: Cap on the Eq. 3 criticality multiplier of a net weight.
MAX_CLUSTER_NET_WEIGHT = 4.0

#: Fields of the four configuration classes a flow reads
#: (:class:`FlowConfig`, :class:`VPRConfig`, :class:`PPAClusteringConfig`,
#: :class:`SeededPlacementConfig`) that change where, how fast or with
#: what records a run executes, never its results, so they are in no
#: stage key.  ``PPAClusteringConfig.seed`` is overwritten by the flow's
#: own seed.  Every other field is in a key
#: (``tests/core/test_stage_keys.py`` holds the two sets to that).
NON_RESULT_FIELDS = frozenset(
    {
        "FlowConfig.jobs",
        "FlowConfig.checkpoint_dir",
        "FlowConfig.resume",
        "FlowConfig.cache_dir",
        "FlowConfig.artifacts_dir",
        "VPRConfig.jobs",
        "VPRConfig.chunk_size",
        "VPRConfig.item_timeout",
        "VPRConfig.fleet_listen",
        "PPAClusteringConfig.seed",
    }
)


@dataclass
class FlowConfig:
    """Configuration of the clustered placement flow.

    Attributes:
        tool: "openroad" or "innovus" (seeded-placement mode).
        clustering: Clusterer: "ppa" (the paper), or an ablation arm:
            "mfc" (plain multilevel FC), "leiden", "louvain", "bc",
            "ec".
        clustering_config: PPA-aware clustering knobs (also supplies
            the target cluster count for the ablation clusterers).
        shape_selector: Shape-selection strategy; None means exact
            V-P&R (:class:`VPRShapeSelector` with ``vpr_config``).
        vpr_config: V-P&R knobs for the default selector (a selector
            that owns a framework sweeps with, and the run is described
            by, that framework's config instead).
        run_routing: Run CTS + routing + post-route STA (Tables 3-6);
            False stops after post-place HPWL (Table 2).
        power_emphasis: The paper's power-awareness future-work knob:
            additionally scales placement net weights by
            ``1 + power_emphasis * (activity * C_net) / mean`` so
            high-switching-energy nets are pulled shorter, trading a
            little wirelength/timing freedom for dynamic power
            (ablated in benchmarks/bench_ext_power_aware.py).
        artifacts_dir: When set, the flow writes its file artefacts
            there: the cluster soft-macro .lef (Algorithm 1, line 13),
            the clustered-netlist seed placement .def and the final
            placed .def.  Only a run that computes the seeded stage
            writes them (one served from a store holds no clustered
            netlist).
        timing_weighted_cluster_nets: Carry the Eq. 3 edge criticality
            onto net weights for the cluster placement and the flat
            incremental refinement (capped at
            ``MAX_CLUSTER_NET_WEIGHT``).  The paper's seeded placement
            runs inside timing-driven commercial/OpenROAD placement;
            our placer substrate is wirelength-driven, so the flow
            stands in with the criticality weights its own clustering
            stage already computed (DESIGN.md, substitutions).
        jobs: Worker count of the V-P&R sweep (the flow's runtime
            bottleneck).  When not 1 it is the width the flow's sweep
            runs at, whichever framework runs it (``vpr_config`` or the
            shape selector's own); 1 leaves that config's ``jobs`` in
            charge.  The caller's config is never written.  Serial and
            parallel runs produce identical results.
        seed: Seed forwarded to clusterers / placers.
        checkpoint_dir: When set, the flow checkpoints each completed
            stage (and each V-P&R work item) to this directory so an
            interrupted run can restart from the last completed unit of
            work.  None (the default) disables checkpointing entirely —
            no extra work on the hot path.
        resume: Resume from ``checkpoint_dir`` instead of starting
            fresh.  Stage records are keyed by content (the design,
            and the knobs each stage reads), so a resume serves every
            stage whose key it computes again and recomputes the rest:
            an interrupted run, or one whose knobs changed, finishes
            bit-identical to a fresh run with the same configuration.
            See ``docs/recovery.md``.
        cache_dir: When set, stage records and V-P&R candidate
            evaluations are served from (and stored into) a
            content-addressed cross-run cache in this directory.
            Unlike a checkpoint (one run's resume state), the cache is
            shared by *any* run whose stage keys or (sub-netlist,
            shape, config) items match; warm results are
            byte-identical to cold.  See ``docs/performance.md``.
    """

    tool: str = "openroad"
    clustering: str = "ppa"
    clustering_config: PPAClusteringConfig = field(
        default_factory=PPAClusteringConfig
    )
    shape_selector: Optional[ShapeSelector] = None
    vpr_config: VPRConfig = field(default_factory=VPRConfig)
    run_routing: bool = True
    timing_weighted_cluster_nets: bool = True
    power_emphasis: float = 0.0
    artifacts_dir: Optional[str] = None
    jobs: int = 1
    seed: int = 0
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.resume and not self.checkpoint_dir:
            raise ValueError("FlowConfig.resume requires checkpoint_dir")


@dataclass
class FlowResult:
    """Outcome of a flow run.

    Attributes:
        metrics: The PPA metric record.
        num_clusters: Cluster count (0 for flat flows).
        singleton_clusters: Singleton count (footnote 2).
        selection: V-P&R shape selection details (None for flat flows).
        clustering: Full clustering result (None for flat flows).
    """

    metrics: PPAMetrics
    num_clusters: int = 0
    singleton_clusters: int = 0
    selection: Optional[VPRSelection] = None
    clustering: Optional[ClusteringResult] = None


# ----------------------------------------------------------------------
# Shared evaluation (Algorithm 1, lines 27-30)
# ----------------------------------------------------------------------
def evaluate_placed_design(
    arrays: NetlistArrays,
    floorplan: Floorplan,
    runtimes: Optional[Dict[str, float]] = None,
    run_routing: bool = True,
) -> PPAMetrics:
    """CTS + global routing + post-route STA and power on a placed flat
    netlist (``design.arrays()``); returns the full PPA metric record.
    Reads the netlist and writes nothing back.

    ``run_routing=False`` stops at the post-place HPWL (Table 2 mode).
    The STA is one full update over the form's timing graph
    (:func:`~repro.sta.graph.timing_graph_for`, rebuilt only with the
    form after a structural edit) under the routed per-net lengths.
    """
    runtimes = dict(runtimes or {})
    post_place_hpwl = hpwl(arrays)
    if not run_routing:
        return PPAMetrics(hpwl=post_place_hpwl, runtimes=runtimes)

    with obs.stage("flow.cts") as stage:
        cts = synthesize_clock_tree(arrays, floorplan)
    runtimes["cts"] = stage.elapsed

    with obs.stage("flow.route") as stage:
        routing = GlobalRouter(arrays, floorplan).run()
    runtimes["route"] = stage.elapsed

    with obs.stage("flow.sta") as stage:
        analyzer = TimingAnalyzer(
            timing_graph_for(arrays),
            RoutedWireModel(dict(routing.net_lengths)),
            clock_uncertainty=cts.skew,
        )
        report = analyzer.update()
        hold = analyze_hold(analyzer)
        power = analyze_power(
            arrays,
            analyzer.wire_model,
            propagate_activity(analyzer.graph),
            clock_wirelength=cts.wirelength,
            clock_buffers=cts.num_buffers,
        )
    runtimes["sta_eval"] = stage.elapsed

    return PPAMetrics(
        hpwl=post_place_hpwl,
        rwl=routing.routed_wirelength + cts.wirelength,
        wns=report.wns,
        tns=report.tns,
        power=power.total,
        hold_wns=hold.wns,
        hold_tns=hold.tns,
        runtimes=runtimes,
    )


# ----------------------------------------------------------------------
# The paper's flow
# ----------------------------------------------------------------------
class ClusteredPlacementFlow:
    """Algorithm 1 end to end."""

    def __init__(self, config: Optional[FlowConfig] = None) -> None:
        self.config = config or FlowConfig()

    # -- clustering dispatch ---------------------------------------------
    def _run_clustering(self, db: DesignDatabase) -> ClusteringResult:
        config = self.config
        method = config.clustering
        if method == "ppa":
            return ppa_aware_clustering(
                db, replace(config.clustering_config, seed=config.seed)
            )

        hgraph = db.hypergraph
        target = max(
            config.clustering_config.min_target_clusters,
            hgraph.num_vertices
            // max(1, config.clustering_config.target_cluster_size),
        )
        with obs.stage("cluster.baseline", method=method) as stage:
            if method == "mfc":
                cluster_of = first_choice_clustering(
                    hgraph,
                    FirstChoiceConfig(target_clusters=target, seed=config.seed),
                )
            elif method in ("leiden", "louvain"):
                graph = AdjacencyGraph.from_hypergraph(hgraph)
                if method == "leiden":
                    cluster_of = leiden_communities(graph, seed=config.seed)
                else:
                    cluster_of = louvain_communities(graph, seed=config.seed)
            elif method == "bc":
                cluster_of = best_choice_clustering(
                    hgraph, target_clusters=target, seed=config.seed
                )
            elif method == "ec":
                cluster_of = edge_coarsening(
                    hgraph, target_clusters=target, seed=config.seed
                )
            else:
                raise ValueError(f"unknown clustering method {method!r}")
        return ClusteringResult(
            cluster_of=np.asarray(cluster_of, dtype=np.int64),
            runtimes={"clustering": stage.elapsed},
        )

    # -- stage records -----------------------------------------------------
    def _vpr_config(self) -> VPRConfig:
        """The run's one V-P&R config: the shape selector's own when it
        sweeps with a framework, else ``config.vpr_config`` — a copy at
        the flow's width when ``config.jobs`` is not 1."""
        framework = getattr(self.config.shape_selector, "framework", None)
        vpr_config = framework.config if framework else self.config.vpr_config
        if self.config.jobs == 1:
            return vpr_config
        return replace(vpr_config, jobs=self.config.jobs)

    def _run_config(self, design: Design) -> Dict[str, object]:
        """The run's configuration as its checkpoint manifest records
        it: the design it ran on, and what ``EcoSession`` reads back
        (the V-P&R fields, ``run_routing``, ``seed``, ``selector``)."""
        config = self.config
        selector = config.shape_selector
        return {
            "design": design.name,
            "instances": design.num_instances,
            "nets": design.num_nets,
            "seed": config.seed,
            "tool": config.tool,
            "clustering": config.clustering,
            "selector": selector.name if selector is not None else "vpr",
            "run_routing": config.run_routing,
            "power_emphasis": config.power_emphasis,
            **self._vpr_config().result_fingerprint(),
        }

    def stage_keys(
        self, design: Design, selector: ShapeSelector
    ) -> Tuple[Dict[str, str], bool]:
        """``(stage -> content key, shared)``: each key hashes its
        parent stage's key and the configuration fields that stage
        reads.  ``shared`` is False when the selector has no stable
        identity; its stages then stay out of the shared cache."""
        config = self.config
        clusterer = asdict(config.clustering_config)
        clusterer["seed"] = config.seed  # the flow's seed is the clusterer's
        identity = selector.identity()
        keys = {}
        keys["clustering"] = stage_key(
            "clustering",
            input_key(design),
            method=config.clustering,
            config=clusterer,
        )
        keys["vpr"] = stage_key(
            "vpr",
            keys["clustering"],
            vpr=self._vpr_config().result_fingerprint(),
            selector=identity or {"name": selector.name, "shared": False},
        )
        keys["vpr_digests"] = stage_key("vpr_digests", keys["vpr"])
        keys["seeded"] = stage_key(
            "seeded",
            keys["vpr"],
            tool=config.tool,
            timing_weighted_cluster_nets=config.timing_weighted_cluster_nets,
            power_emphasis=config.power_emphasis,
            placer=asdict(SeededPlacementConfig(tool=config.tool)),
        )
        keys["eco_base"] = stage_key("eco_base", keys["seeded"])
        keys["metrics"] = stage_key(
            "metrics", keys["seeded"], run_routing=config.run_routing
        )
        return keys, identity is not None

    def _open_stores(self, design: Design, selector: ShapeSelector) -> Tuple[
        Optional[CheckpointStore], Optional[EvaluationCache], Dict[str, str], bool
    ]:
        """``(checkpoint, cache, keys, shared)``.  With neither store
        configured no key is computed."""
        config = self.config
        cache = EvaluationCache(config.cache_dir) if config.cache_dir else None
        if not (config.checkpoint_dir or cache):
            return None, None, {}, False
        keys, shared = self.stage_keys(design, selector)
        checkpoint = None
        if config.checkpoint_dir:
            checkpoint = CheckpointStore(config.checkpoint_dir)
            if config.resume:
                checkpoint.open_resume(self._run_config(design), keys)
            else:
                checkpoint.initialize(self._run_config(design))
        return checkpoint, cache, keys, shared

    # -- the flow ----------------------------------------------------------
    def run(self, design: Design) -> FlowResult:
        """Run Algorithm 1 on a design; placement is committed to it.

        With ``config.checkpoint_dir`` and/or ``config.cache_dir`` set,
        each stage is served from the first store holding its content
        key (the checkpoint on ``config.resume``, then the cache) and
        persisted when computed; QoR is bit-identical either way.
        """
        config = self.config
        db = DesignDatabase(design)
        vpr_config = self._vpr_config()
        selector = config.shape_selector or VPRShapeSelector(vpr_config)
        framework = getattr(selector, "framework", None)
        checkpoint, cache, keys, shared = self._open_stores(design, selector)

        def stage(
            name: str, compute: Callable[[], Any]
        ) -> Tuple[Any, Optional[float]]:
            """Serve stage ``name`` through its stores (the V-P&R items'
            rule, :class:`~repro.cache.StoreChain`), or compute it and
            write it back; returns ``(payload, served_s)``, the seconds
            serving took or None.  Stages draw only from explicitly
            seeded generators, so what runs after a served stage is
            bit-identical to a run that computed it."""
            key = keys.get(name)
            in_cache = cache is not None and (name == "clustering" or shared)
            chain = StoreChain(
                checkpoint,
                cache if in_cache else None,
                lambda store, k: store.load_stage(
                    name, k, stage_decoder(name, k, design.num_instances)
                ),
                lambda store, k, data: store.save_stage(name, k, data),
            )

            def record() -> bytes:
                return encode_stage(name, key, payload)

            if chain.stores:
                with obs.stage("flow.serve", stage=name) as serve:
                    payload, position = chain.serve(key)
                    if payload is not None:
                        chain.write_back(key, record, position)
                if payload is not None:
                    return payload, serve.elapsed
            faults.check("flow." + name)
            payload = compute()
            chain.write_back(key, record)
            return payload, None

        runtimes: Dict[str, float] = {}
        context = dict(
            design=design.name,
            instances=design.num_instances,
            clustering=config.clustering,
            tool=config.tool,
        )
        obs.event("flow.start", **context)
        obs.set_meta(**context)

        # Lines 2-10: PPA-aware clustering.
        def _compute_clustering() -> ClusteringResult:
            with obs.stage("flow.clustering", method=config.clustering):
                return self._run_clustering(db)

        # A served stage's runtime entries are the seconds this run
        # spent serving it, not the seconds its record took to compute.
        clustering, served_s = stage("clustering", _compute_clustering)
        if served_s is not None:
            clustering.runtimes = {"clustering": served_s}
        runtimes.update(clustering.runtimes)
        members = clustering.members()
        obs.event(
            "cluster.formed",
            method=config.clustering,
            clusters=clustering.num_clusters,
            singletons=clustering.singleton_count(),
        )
        obs.observe("cluster.count", clustering.num_clusters)

        # Lines 12-13: V-P&R shapes for clusters > 200 instances.
        vpr_stage = obs.stage("flow.vpr", selector=selector.name)

        def _compute_selection() -> VPRSelection:
            # The sweep runs at the flow's width and on this run's
            # stores; a caller's selector gets its own config and
            # stores back.
            if framework is None:
                with vpr_stage:
                    return selector.select(design, members)
            own = (framework.config, framework.checkpoint, framework.cache)
            framework.config = vpr_config
            if checkpoint is not None:
                framework.checkpoint = checkpoint
            if cache is not None:
                framework.cache = cache
            try:
                with vpr_stage:
                    return selector.select(design, members)
            finally:
                framework.config, framework.checkpoint, framework.cache = own

        selection, served_s = stage("vpr", _compute_selection)
        if served_s is not None:
            selection.runtime = served_s
        runtimes["vpr"] = vpr_stage.elapsed if served_s is None else served_s

        # Per-cluster content digests for the eligible (capped) set:
        # the ECO path uses these to address unchanged clusters' cache
        # entries without re-inducing their sub-netlists.  Right after
        # a sweep the framework's induce/digest memos are warm, so
        # this costs microseconds.
        if checkpoint is not None and framework is not None:

            def _compute_digests() -> Dict[int, Tuple[str, float]]:
                return {
                    cid: framework.cluster_digest(design, members[cid])
                    for cid in vpr_config.swept_clusters(members)[0]
                }

            stage("vpr_digests", _compute_digests)

        # Lines 15-25: seeded placement.  The flat refinement also
        # sees the criticality weights (standing in for the tools'
        # timing-driven placement mode), passed as the clustered
        # netlist's multiplier array: the design's net weights are
        # never written.  Region constraints (Innovus mode) cover the
        # V-P&R-eligible clusters regardless of which shape selector
        # ran, so ablation arms differ only in the shapes.  A served
        # seeded stage restores the committed coordinates instead of
        # building the clustered netlist and re-placing.
        vpr_ids, _ = vpr_config.swept_clusters(members)
        clustered = None

        def _compute_seeded() -> Dict[str, object]:
            nonlocal clustered
            # Line 10/13: clustered netlist with the chosen shapes.
            clustered = build_clustered_netlist(
                design,
                clustering.cluster_of,
                shapes=selection.shapes,
                io_net_weight=IO_NET_WEIGHT if config.tool == "openroad" else 1.0,
                net_weight_multipliers=self._net_multipliers(db, clustering),
            )
            with obs.stage("flow.seeded_placement", tool=config.tool):
                seeded_result = seeded_placement(
                    clustered,
                    SeededPlacementConfig(tool=config.tool),
                    vpr_cluster_ids=vpr_ids,
                )
            return capture_placement_state(design, seeded_result)

        seeded_state, served_s = stage("seeded", _compute_seeded)
        if served_s is not None:
            restore_placement_state(design, seeded_state)
            seeded_state["runtimes"] = {"seeded": served_s}
        runtimes.update(seeded_state["runtimes"])

        # ECO base snapshot: with checkpointing on, persist the placed
        # design (its NetlistArrays columns) alongside the stage records, so
        # `repro eco <ckpt> --edits ...` is self-contained — it can
        # rebuild the exact post-seeded design without the original
        # input files (docs/performance.md, "Incremental ECO").  It is
        # a few milliseconds from the placed design, so it is never
        # shared through the cache.
        eco_key = keys.get("eco_base")
        if checkpoint is not None and checkpoint.stage_key("eco_base") != eco_key:
            with obs.stage("flow.eco_base"):
                base = {"design": design_snapshot(design)}
                data = encode_stage("eco_base", eco_key, base)
                checkpoint.save_stage("eco_base", eco_key, data)

        # Line 13 artefacts: cluster .lef + seed/final .def on request.
        if config.artifacts_dir is not None and clustered is not None:
            _write_artifacts(config.artifacts_dir, design, clustered)

        # Lines 27-30: evaluation.
        def _compute_metrics() -> PPAMetrics:
            return evaluate_placed_design(
                design.arrays(), design.floorplan, runtimes, config.run_routing
            )

        metrics, served_s = stage("metrics", _compute_metrics)
        if served_s is not None:
            metrics.runtimes = {**runtimes, "metrics": served_s}
        obs.event(
            "flow.done",
            design=design.name,
            hpwl=metrics.hpwl,
            wns=metrics.wns,
            clusters=clustering.num_clusters,
        )

        return FlowResult(
            metrics=metrics,
            num_clusters=clustering.num_clusters,
            singleton_clusters=clustering.singleton_count(),
            selection=selection,
            clustering=clustering,
        )

    def _net_multipliers(
        self, db: DesignDatabase, clustering: ClusteringResult
    ) -> Optional[np.ndarray]:
        """Per-net placement weight multipliers ``(num_nets,)``: the
        Eq. 3 criticality weights times the power emphasis, or None."""
        config = self.config
        multipliers = None
        if config.timing_weighted_cluster_nets and clustering.edge_scores is not None:
            multipliers = _criticality_multipliers(
                db, clustering.edge_scores, MAX_CLUSTER_NET_WEIGHT
            )
        if config.power_emphasis > 0:
            power = _power_multipliers(db.design, config.power_emphasis)
            if power is not None:
                multipliers = power if multipliers is None else multipliers * power
        return multipliers


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def default_flow(
    design: Design,
    tool: str = "openroad",
    run_routing: bool = True,
    seed: int = 0,
) -> FlowResult:
    """The "Default" arm: flat global placement, same evaluation.

    ``tool`` only labels the run; both tools' default arms are the
    same flat placer here (the substitution DESIGN.md documents).
    """
    del tool
    with obs.stage("flow.place") as stage:
        problem = PlacementProblem(design.arrays(), design.floorplan)
        GlobalPlacer(problem, PlacerConfig(seed=seed)).run()
    metrics = evaluate_placed_design(
        design.arrays(), design.floorplan, {"place": stage.elapsed}, run_routing
    )
    return FlowResult(metrics=metrics)


def blob_placement_flow(
    design: Design, run_routing: bool = False, seed: int = 0
) -> FlowResult:
    """The blob placement [9] baseline of Table 2.

    Louvain communities as clusters, 4x IO-net weights, seeded
    placement in OpenROAD mode, uniform cluster shapes (no V-P&R): the
    paper's flow with those arms (Louvain has no criticality weights).
    """
    config = FlowConfig(
        clustering="louvain",
        shape_selector=UniformShapeSelector(),
        run_routing=run_routing,
        seed=seed,
    )
    return ClusteredPlacementFlow(config).run(design)


def _write_artifacts(directory: str, design: Design, clustered) -> None:
    """Write the flow's file artefacts (cluster .lef, seed + placed .def)."""
    from pathlib import Path

    from repro.netlist.def_format import write_def
    from repro.netlist.lef import write_lef

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    macros = {m.name: m for m in clustered.lef.macros.values()}
    (out / f"{design.name}_clusters.lef").write_text(write_lef(macros))
    (out / f"{design.name}_seed.def").write_text(write_def(clustered.design))
    (out / f"{design.name}_placed.def").write_text(write_def(design))


def _power_multipliers(design: Design, emphasis: float) -> Optional[np.ndarray]:
    """Per-net weight multipliers ``(num_nets,)`` from switching energy.

    Weight grows with the net's dynamic-power share: activity times the
    capacitive load (pin caps + a fanout-based wire estimate), so the
    placer shortens the nets that burn the most switching power.  Clock
    and single-pin nets keep 1.0; None when no net switches.
    """
    from repro.sta.delay import FanoutWireModel
    from repro.sta.flat import flat_for

    arrays = design.arrays()
    graph = timing_graph_for(arrays)
    activity = propagate_activity(graph)
    loads = flat_for(graph).net_loads(FanoutWireModel(), None, None)[0]
    signal = np.flatnonzero(~arrays.net_is_clock & (arrays.net_degree >= 2))
    energies = activity[signal] * loads[signal]
    mean = (sum(energies.tolist()) / len(energies)) if len(energies) else 1.0
    if mean <= 0:
        return None
    out = np.ones(arrays.num_nets)
    out[signal] = 1.0 + emphasis * np.minimum(energies / mean, 4.0)
    return out


def _criticality_multipliers(
    db: DesignDatabase, edge_scores: np.ndarray, cap: float
) -> np.ndarray:
    """Per-net weight multipliers ``(num_nets,)`` from Eq. 3 edge scores.

    Scores are normalised by their mean, so an average net keeps
    weight 1 and critical nets are pulled up to ``cap``; nets that are
    no hyperedge keep 1.0.
    """
    nets = np.asarray(db.hypergraph.edge_net_indices, dtype=np.int64)
    mean = float(edge_scores.mean()) or 1.0
    edge = nets >= 0
    out = np.ones(db.design.num_nets)
    scores = np.asarray(edge_scores, dtype=np.float64)[edge]
    out[nets[edge]] = np.clip(scores / mean, 1.0, cap)
    return out
