"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``flow`` — run the clustered placement flow (or a baseline) on a
  benchmark or on netlist files, printing the PPA metrics.
* ``bench-table`` — print Table 1 (benchmark statistics).
* ``cluster`` — run PPA-aware clustering only and report the summary.
* ``sta`` — timing/power report on a placed benchmark.
* ``viz`` — render placement / cluster / congestion SVGs.
* ``report`` — inspect or diff telemetry run reports (``run.json`` files
  or the run directories holding them); ``report diff A B`` exits
  non-zero when a QoR stream regressed.
* ``top`` — live single-screen view of a monitored run directory
  (``flow --telemetry DIR --monitor``), from any process.
* ``cache`` — manage the cross-run cache of flow stages and V-P&R
  evaluations (``stats`` / ``gc`` / ``clear``); see ``flow --cache DIR``.
* ``worker`` — fleet worker process for a distributed V-P&R sweep:
  dials a ``flow --fleet-listen`` parent and evaluates sweep chunks
  remotely; see ``docs/performance.md``, "Distributed sweep".
* ``serve`` — long-lived flow job server: an async job queue over a
  bounded worker pool, every job sharing one evaluation cache; see
  ``docs/serving.md``.

All commands accept ``--seed`` for determinism.  See ``--help`` of each
subcommand.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__

#: The ``flow`` vocabulary: the one list behind both front doors — the
#: argparse choices here and the job server's spec validation
#: (:mod:`repro.serve.schemas`).
FLOW_CHOICES = ("ours", "default", "blob")
TOOL_CHOICES = ("openroad", "innovus")
CLUSTERING_CHOICES = ("ppa", "mfc", "leiden", "louvain", "bc", "ec")
SHAPES_CHOICES = ("vpr", "uniform", "random")


def _positive_int(text: str) -> int:
    """``--jobs``: an integer of at least 1, as ``POST /jobs`` checks it."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _endpoint(text: str) -> str:
    """``--fleet-listen``: a ``HOST:PORT`` the fleet can bind."""
    from repro.core.wire import parse_endpoint

    try:
        parse_endpoint(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_flow_parser(subparsers) -> None:
    p = subparsers.add_parser("flow", help="run a placement flow")
    p.add_argument("--benchmark", default="aes", help="benchmark name (Table 1)")
    p.add_argument(
        "--flow",
        default="ours",
        choices=FLOW_CHOICES,
        help="ours = Algorithm 1; default = flat placement; blob = [9]",
    )
    p.add_argument("--tool", default="openroad", choices=TOOL_CHOICES)
    p.add_argument("--clustering", default="ppa", choices=CLUSTERING_CHOICES)
    p.add_argument(
        "--shapes",
        default="vpr",
        choices=SHAPES_CHOICES,
        help="cluster shape selector",
    )
    p.add_argument("--no-routing", action="store_true", help="stop post-place")
    p.add_argument(
        "--checkpoint",
        metavar="DIR",
        help="checkpoint each completed flow stage (and each V-P&R work "
        "item) to DIR so an interrupted run can be resumed "
        "(--flow ours only); see docs/recovery.md",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint DIR instead of starting fresh; "
        "stages whose content keys match are served, the rest (e.g. "
        "downstream of a changed option) recomputed; QoR is bit for "
        "bit a fresh run's",
    )
    p.add_argument(
        "--cache",
        metavar="DIR",
        help="serve flow stages and V-P&R candidate evaluations from "
        "(and store them into) a content-addressed cross-run cache in "
        "DIR; warm results are byte-identical to cold (--flow ours "
        "only); see docs/performance.md",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker count of the V-P&R sweep: N > 1 forks N local "
        "fleet workers (results are identical to a serial run)",
    )
    p.add_argument(
        "--fleet-listen",
        type=_endpoint,
        metavar="HOST:PORT",
        default=None,
        help="bind the sweep's fleet listener here and wait for --jobs "
        "externally launched `repro worker --connect HOST:PORT` "
        "processes (e.g. over ssh) instead of forking local workers; "
        "see docs/performance.md, 'Distributed sweep'",
    )
    p.add_argument(
        "--perf-report",
        help="write a repro.perf JSON report (stage timings, counters, "
        "cache hit rates) to this path; also honours REPRO_PROFILE=<path> "
        "for a cProfile dump",
    )
    p.add_argument(
        "--telemetry",
        metavar="DIR",
        help="enable flow-wide telemetry (tracing spans, QoR metric "
        "streams, structured events) and write DIR/run.json, "
        "DIR/report.html and DIR/events.jsonl",
    )
    p.add_argument(
        "--monitor",
        action="store_true",
        help="with --telemetry: run the live flight recorder — a "
        "background RSS/CPU sampler, per-loop progress accounting and "
        "an atomically-refreshed DIR/status.json that `repro top DIR` "
        "renders from any process; see docs/observability.md",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write a QoR JSON report to this path")
    p.add_argument("--verilog", help=".v netlist (overrides --benchmark)")
    p.add_argument("--liberty", help=".lib library (with --verilog)")
    p.add_argument("--def", dest="def_file", help=".def floorplan")
    p.add_argument("--sdc", help=".sdc constraints")
    p.add_argument(
        "--generator",
        metavar="JSON",
        help="generate the design from DesignSpec parameters given as a "
        "JSON object (overrides --benchmark), e.g. "
        '\'{"name": "tiny", "num_instances": 600}\'',
    )


def _add_simple_parsers(subparsers) -> None:
    subparsers.add_parser("bench-table", help="print Table 1 statistics")

    p = subparsers.add_parser("cluster", help="run PPA-aware clustering only")
    p.add_argument("--benchmark", default="aes")
    p.add_argument("--target-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = subparsers.add_parser("sta", help="place + timing/power report")
    p.add_argument("--benchmark", default="aes")
    p.add_argument("--paths", type=int, default=5, help="critical paths shown")
    p.add_argument("--seed", type=int, default=0)

    p = subparsers.add_parser(
        "viz", help="render placement / cluster / congestion SVGs"
    )
    p.add_argument("--benchmark", default="aes")
    p.add_argument("--out", default="/tmp/repro_viz", help="output directory")
    p.add_argument("--seed", type=int, default=0)

    p = subparsers.add_parser(
        "report", help="inspect / diff telemetry run reports"
    )
    rsub = p.add_subparsers(dest="report_command", required=True)
    d = rsub.add_parser(
        "diff",
        help="compare two run.json files; exit 1 when a QoR stream "
        "regressed past the thresholds",
    )
    d.add_argument(
        "baseline", help="baseline run.json (or a run directory)"
    )
    d.add_argument(
        "candidate", help="candidate run.json (or a run directory)"
    )
    d.add_argument(
        "--rel",
        type=float,
        default=0.05,
        help="relative worsening threshold (default 0.05 = 5%%)",
    )
    d.add_argument(
        "--abs",
        dest="abs_threshold",
        type=float,
        default=1e-9,
        help="absolute worsening threshold",
    )
    d.add_argument(
        "--stream",
        action="append",
        dest="streams",
        help="limit the gate to these streams (repeatable; a named "
        "stream missing from either run counts as a regression)",
    )
    s = rsub.add_parser("show", help="summarise one run.json")
    s.add_argument("path", help="run.json (or a run directory) to summarise")
    s.add_argument(
        "--html", help="also render a self-contained HTML report here"
    )

    t = subparsers.add_parser(
        "top", help="live view of a monitored run directory"
    )
    t.add_argument(
        "rundir",
        help="run directory of a `flow --telemetry DIR --monitor` run",
    )
    t.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (for scripts / CI logs)",
    )
    t.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between frames (default 1.0)",
    )
    t.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="stop after this many seconds even if the run is still "
        "going (default: poll until the run leaves the running state)",
    )

    p = subparsers.add_parser(
        "cache", help="manage the cross-run cache (flow stages, V-P&R items)"
    )
    csub = p.add_subparsers(dest="cache_command", required=True)
    c = csub.add_parser("stats", help="entry count and total bytes stored")
    c.add_argument("directory", help="cache directory (flow --cache DIR)")
    c = csub.add_parser(
        "gc", help="evict least-recently-used entries past the bounds"
    )
    c.add_argument("directory", help="cache directory")
    c.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="entry-count bound (default: the store's built-in bound)",
    )
    c.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="total-size bound in bytes (default: unlimited)",
    )
    c = csub.add_parser("clear", help="remove every cached entry")
    c.add_argument("directory", help="cache directory")

    p = subparsers.add_parser(
        "eco",
        help="incremental ECO: apply a netlist edit script to a "
        "checkpointed run and recompute QoR in seconds",
    )
    p.add_argument(
        "checkpoint",
        help="checkpoint directory of a *finished* `flow ours "
        "--checkpoint DIR` run (must contain the eco_base snapshot)",
    )
    p.add_argument(
        "--edits",
        required=True,
        metavar="FILE",
        help="JSON edit script (schema repro.eco/1): resize / swap / "
        "add / remove cell, reconnect pin; an empty list replays the "
        "checkpointed metrics bit-identically",
    )
    p.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="evaluation cache the base run used; unchanged-cluster "
        "sweeps become pure cache hits and hot entries are "
        "mtime-touched so GC keeps them warm",
    )
    p.add_argument(
        "--report",
        metavar="FILE",
        help="write the updated metrics + reuse summary as JSON",
    )
    p.add_argument(
        "--perf-report",
        help="write a repro.perf JSON report (eco.* counters, stage "
        "timings) to this path",
    )
    p.add_argument(
        "--telemetry",
        metavar="DIR",
        help="write eco.* spans/events + run.json to DIR (same layout "
        "as flow --telemetry)",
    )
    p.add_argument(
        "--monitor",
        action="store_true",
        help="with --telemetry: live status.json progress (eco.edits / "
        "vpr.items / eco.gp.iters tasks) for `repro top DIR`",
    )

    p = subparsers.add_parser(
        "worker",
        help="fleet worker for a distributed V-P&R sweep "
        "(dials a `flow --fleet-listen` parent)",
    )
    p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the sweep parent's fleet listener "
        "(`flow --fleet-listen HOST:PORT`)",
    )
    p.add_argument(
        "--reconnect",
        type=int,
        default=0,
        metavar="N",
        help="extra connection attempts after a refused dial or a "
        "dropped parent (default 0)",
    )
    p.add_argument(
        "--reconnect-delay",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds between connection attempts (default 1.0)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress status lines"
    )

    p = subparsers.add_parser(
        "serve",
        help="long-lived flow job server on a shared evaluation cache",
    )
    p.add_argument(
        "--run-root",
        default="serve-run",
        help="directory for server.json and per-job telemetry dirs "
        "(default ./serve-run)",
    )
    p.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="shared evaluation cache all jobs read and write "
        "(default RUN_ROOT/cache); content-addressed keys make it "
        "naturally multi-tenant",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="flow-worker pool width = max concurrent jobs (each job "
        "runs in its own runner subprocess; default 2)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8181,
        help="TCP port (0 picks an ephemeral port, published in "
        "RUN_ROOT/server.json)",
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="kill a runner exceeding this many seconds and mark the "
        "job failed (default: unbounded)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PPA-relevant clustering-driven placement (DAC 2024 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_flow_parser(subparsers)
    _add_simple_parsers(subparsers)
    return parser


def _load_design(args):
    if getattr(args, "generator", None):
        import json

        from repro.designs.generator import DesignSpec, generate_design

        try:
            spec = DesignSpec.from_params(json.loads(args.generator))
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--generator: invalid JSON: {exc}")
        except ValueError as exc:
            raise SystemExit(f"--generator: {exc}")
        return generate_design(spec)
    if getattr(args, "verilog", None):
        from repro.db import load_design_files

        if not args.liberty:
            raise SystemExit("--verilog requires --liberty")
        db = load_design_files(
            args.verilog,
            args.liberty,
            def_path=args.def_file,
            sdc_path=args.sdc,
        )
        return db.design
    from repro.designs import load_benchmark

    return load_benchmark(args.benchmark, use_cache=False)


def _cmd_flow(args) -> int:
    import os

    from repro import obs, perf
    from repro.core import (
        ClusteredPlacementFlow,
        FlowConfig,
        blob_placement_flow,
        default_flow,
    )
    from repro.core.reporting import flow_qor_summary
    from repro.core.vpr import RandomShapeSelector, UniformShapeSelector, VPRConfig

    perf_path = getattr(args, "perf_report", None)
    telemetry_dir = getattr(args, "telemetry", None)
    monitor_on = bool(getattr(args, "monitor", False))
    if monitor_on and not telemetry_dir:
        raise SystemExit("--monitor requires --telemetry DIR")
    checkpoint_dir = getattr(args, "checkpoint", None)
    if args.resume and not checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint DIR")
    if checkpoint_dir and args.flow != "ours":
        raise SystemExit("--checkpoint is only supported with --flow ours")
    cache_dir = getattr(args, "cache", None)
    if cache_dir and args.flow != "ours":
        raise SystemExit("--cache is only supported with --flow ours")
    fleet_listen = getattr(args, "fleet_listen", None)
    if fleet_listen and args.flow != "ours":
        raise SystemExit("--fleet-listen is only supported with --flow ours")

    run_routing = not args.no_routing
    with obs.run(
        perf_report=perf_path,
        telemetry_dir=telemetry_dir,
        monitor=monitor_on,
        command="flow",
        benchmark=getattr(args, "benchmark", None),
        flow=args.flow,
        tool=args.tool,
        clustering=args.clustering,
        shapes=args.shapes,
        routing=run_routing,
        jobs=args.jobs,
        seed=args.seed,
        version=__version__,
    ) as run:
        design = _load_design(args)
        run.meta.update(design=design.name, instances=design.num_instances)
        obs.set_meta(design=design.name)
        with perf.cprofile_to(os.environ.get("REPRO_PROFILE"), top=25):
            if args.flow == "default":
                result = default_flow(
                    design, tool=args.tool, run_routing=run_routing, seed=args.seed
                )
            elif args.flow == "blob":
                result = blob_placement_flow(
                    design, run_routing=run_routing, seed=args.seed
                )
            else:
                selector = None
                if args.shapes == "uniform":
                    selector = UniformShapeSelector()
                elif args.shapes == "random":
                    selector = RandomShapeSelector(seed=args.seed)
                config = FlowConfig(
                    tool=args.tool,
                    clustering=args.clustering,
                    shape_selector=selector,
                    run_routing=run_routing,
                    jobs=args.jobs,
                    seed=args.seed,
                    checkpoint_dir=checkpoint_dir,
                    resume=args.resume,
                    cache_dir=cache_dir,
                    vpr_config=VPRConfig(fleet_listen=fleet_listen),
                )
                result = ClusteredPlacementFlow(config).run(design)
        run.qor = flow_qor_summary(result)

    if perf_path:
        print(f"wrote perf report to {perf_path}")
        for line in run.perf.summary_lines():
            print(f"  {line}")

    if getattr(args, "report", None):
        from repro.core.reporting import write_qor_json

        write_qor_json(args.report, result, design)
        print(f"wrote QoR report to {args.report}")

    if run.report is not None:
        print(
            f"wrote telemetry to {telemetry_dir} "
            f"({len(run.report.metrics)} streams, {len(run.report.spans)} spans, "
            f"{len(run.report.events)} events)"
        )

    m = result.metrics
    print(f"design        : {design.name} ({design.num_instances} instances)")
    if result.num_clusters:
        print(f"clusters      : {result.num_clusters}")
    print(f"HPWL          : {m.hpwl:.1f} um")
    if m.rwl is not None:
        print(f"routed WL     : {m.rwl:.1f} um")
        print(f"WNS           : {m.wns * 1e3:.0f} ps")
        print(f"TNS           : {m.tns:.3f} ns")
        print(f"power         : {m.power:.3f} mW")
    print(f"placement CPU : {m.placement_runtime:.2f} s")
    for stage, seconds in sorted(m.runtimes.items()):
        print(f"  {stage:<18}: {seconds:.3f} s")
    return 0


def _cmd_bench_table(_args) -> int:
    from repro.designs import benchmark_table

    print(f"{'design':<16}{'#insts':>9}{'#nets':>9}{'TCP':>7}{'macros':>8}")
    for row in benchmark_table():
        print(
            f"{row['design']:<16}{row['instances']:>9}{row['nets']:>9}"
            f"{row['tcp_or']:>7.2f}{row['macros']:>8}"
        )
    return 0


def _cmd_cluster(args) -> int:
    from repro.core.ppa_clustering import (
        PPAClusteringConfig,
        ppa_aware_clustering,
    )
    from repro.db import DesignDatabase

    design = _load_design(args)
    db = DesignDatabase(design)
    result = ppa_aware_clustering(
        db,
        PPAClusteringConfig(target_cluster_size=args.target_size, seed=args.seed),
    )
    sizes = sorted((len(m) for m in result.members()), reverse=True)
    print(f"design     : {design.name}")
    print(f"clusters   : {result.num_clusters}")
    print(f"singletons : {result.singleton_count()}")
    print(f"largest    : {sizes[:5]}")
    if result.hierarchy is not None:
        print(f"hier level : {result.hierarchy.best_level}")
        print(
            "rent/level : "
            + ", ".join(
                f"{lvl}:{r:.3f}"
                for lvl, r in sorted(result.hierarchy.rent_by_level.items())
            )
        )
    cut = db.hypergraph.cut_size(result.cluster_of)
    print(f"cut weight : {cut:.1f} / {db.hypergraph.edge_weights.sum():.1f}")
    return 0


def _cmd_sta(args) -> int:
    from repro.place import GlobalPlacer, PlacementProblem, PlacerConfig
    from repro.sta import (
        PlacementWireModel,
        TimingAnalyzer,
        find_path_ends,
        propagate_activity,
        analyze_power,
        timing_graph_for,
    )

    design = _load_design(args)
    arrays = design.arrays()
    problem = PlacementProblem(arrays, design.floorplan)
    GlobalPlacer(problem, PlacerConfig(seed=args.seed)).run()
    graph = timing_graph_for(arrays)
    analyzer = TimingAnalyzer(graph, PlacementWireModel())
    report = analyzer.update()
    print(f"WNS : {report.wns * 1e3:.0f} ps")
    print(f"TNS : {report.tns:.3f} ns")
    print(f"failing endpoints: {report.num_failing}/{len(report.endpoint_slacks)}")
    for path in find_path_ends(analyzer, group_count=args.paths):
        print(
            f"  {path.slack * 1e3:>8.0f} ps  "
            f"{graph.node_name(path.startpoint)} -> "
            f"{graph.node_name(path.endpoint)} ({len(path) // 2} stages)"
        )
    power = analyze_power(arrays, PlacementWireModel(), propagate_activity(graph))
    print(
        f"power: {power.total:.3f} mW (sw {power.switching:.3f}, "
        f"int {power.internal:.3f}, leak {power.leakage:.4f})"
    )
    return 0


def _cmd_viz(args) -> int:
    from pathlib import Path

    from repro.core.ppa_clustering import ppa_aware_clustering
    from repro.db import DesignDatabase
    from repro.place import GlobalPlacer, PlacementProblem, PlacerConfig
    from repro.route import GlobalRouter
    from repro.viz import (
        render_clusters_svg,
        render_congestion_svg,
        render_placement_svg,
    )

    design = _load_design(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(db)
    problem = PlacementProblem(design.arrays(), design.floorplan)
    GlobalPlacer(problem, PlacerConfig(seed=args.seed)).run()
    routing = GlobalRouter(design.arrays(), design.floorplan).run()
    for kind, path in (
        ("placement", out_dir / f"{design.name}_placement.svg"),
        ("clusters", out_dir / f"{design.name}_clusters.svg"),
        ("congestion", out_dir / f"{design.name}_congestion.svg"),
    ):
        if kind == "placement":
            render_placement_svg(design, path=str(path))
        elif kind == "clusters":
            render_clusters_svg(design, clustering.cluster_of, path=str(path))
        else:
            render_congestion_svg(design, routing.grid, path=str(path))
        print(f"wrote {path}")
    return 0


def _resolve_run_json(path: str) -> str:
    """Accept either a run.json path or the run directory holding one.

    A directory without a ``run.json`` fails with a diagnosis instead
    of a traceback: the event log (read tolerantly, so an in-flight
    write cannot break the message) tells whether the run is still
    going — in which case ``repro top`` is the right tool — or never
    finished.
    """
    import os

    if not os.path.isdir(path):
        return path
    candidate = os.path.join(path, "run.json")
    if os.path.isfile(candidate):
        return candidate
    from repro.telemetry.events import iter_events

    n_events = sum(
        1 for _ in iter_events(os.path.join(path, "events.jsonl"))
    )
    hint = (
        f" Its event log has {n_events} record(s), so a run started but "
        f"has not written run.json — if it is still in flight, watch it "
        f"with `repro top {path}`."
        if n_events
        else " No event log either — was this directory passed to "
        "`flow --telemetry`?"
    )
    raise SystemExit(
        f"error: no run.json in {path} (a completed `flow --telemetry` "
        f"run writes one).{hint}"
    )


def _cmd_report(args) -> int:
    from repro.telemetry import RunReport, diff_runs, render_html

    if args.report_command == "diff":
        diff = diff_runs(
            RunReport.load(_resolve_run_json(args.baseline)),
            RunReport.load(_resolve_run_json(args.candidate)),
            rel_threshold=args.rel,
            abs_threshold=args.abs_threshold,
            streams=args.streams,
        )
        for delta in diff.deltas:
            print(delta.describe())
        if not diff.ok:
            print(f"FAIL: {len(diff.regressions)} stream(s) regressed")
            return 1
        print("ok: no regressions")
        return 0

    report = RunReport.load(_resolve_run_json(args.path))
    for key in sorted(report.meta):
        print(f"{key:<12}: {report.meta[key]}")
    print(f"{'spans':<12}: {len(report.spans)} ({len(report.span_tree())} roots)")
    print(f"{'events':<12}: {len(report.events)}")
    print(f"{'streams':<12}: {len(report.metrics)}")
    for name in sorted(report.metrics):
        stream = report.metrics[name]
        n = len(stream.get("values") or [])
        final = report.stream_final(name)
        final_text = f"{final:.6g}" if final is not None else "-"
        print(f"  {name:<24} n={n:<5} final={final_text}")
    if report.qor:
        print("qor:")
        for key in sorted(report.qor):
            print(f"  {key:<24} {report.qor[key]:.6g}")
    if report.monitor:
        peak = report.monitor.get("peak_rss_bytes") or 0
        print(
            f"{'monitor':<12}: peak RSS {peak / (1024 * 1024):.1f} MiB "
            f"over {report.monitor.get('samples', 0)} samples"
        )
        if "minor_faults" in report.monitor:
            print(
                f"  {'kernel':<24} {report.monitor.get('system_s', 0.0):.3f} s "
                f"system, {report.monitor['minor_faults']} minor faults"
            )
        for name, stage_peak in sorted(
            (report.monitor.get("stage_peak_rss_bytes") or {}).items()
        ):
            print(f"  {name:<24} peak {stage_peak / (1024 * 1024):.1f} MiB")
        for task in report.monitor.get("progress") or []:
            print(
                f"  {task.get('name', '?'):<24} "
                f"{task.get('done')}/{task.get('total')} {task.get('unit')}"
            )
    if getattr(args, "html", None):
        render_html(report, args.html)
        print(f"wrote {args.html}")
    return 0


def _cmd_top(args) -> int:
    from repro.monitor.top import run_top

    return run_top(
        args.rundir,
        once=args.once,
        interval=args.interval,
        timeout=args.timeout,
    )


def _cmd_cache(args) -> int:
    from repro.cache import EvaluationCache, derive_cache_summary

    cache = EvaluationCache(args.directory)
    if args.cache_command == "stats":
        stats = cache.stats()
        totals = cache.read_totals()
        summary = derive_cache_summary(
            totals["hits"], totals["misses"], totals["stores"], stats
        )
        print(f"directory     : {args.directory}")
        print(f"entries       : {summary['entries']}")
        print(f"bytes on disk : {summary['bytes_on_disk']}")
        for kind, size in stats.kinds.items():
            print(
                f"  {kind:<12}: {size['entries']} entries, "
                f"{size['total_bytes']} bytes"
            )
        print(f"hits          : {summary['hits']}")
        print(f"misses        : {summary['misses']}")
        print(f"stores        : {summary['stores']}")
        print(f"hit ratio     : {summary['hit_ratio']:.3f}")
        return 0
    if args.cache_command == "gc":
        evicted = cache.gc(
            max_entries=args.max_entries, max_bytes=args.max_bytes
        )
        stats = cache.stats()
        print(f"evicted {evicted} entries; {stats.entries} remain")
        return 0
    removed = cache.clear()
    print(f"removed {removed} entries")
    return 0


def _cmd_eco(args) -> int:
    import json

    from repro import obs
    from repro.eco import EcoError, load_edit_script, run_eco
    from repro.recovery import CheckpointError

    telemetry_dir = getattr(args, "telemetry", None)
    monitor_on = bool(getattr(args, "monitor", False))
    if monitor_on and not telemetry_dir:
        raise SystemExit("--monitor requires --telemetry DIR")
    try:
        with obs.run(
            perf_report=args.perf_report,
            telemetry_dir=telemetry_dir,
            monitor=monitor_on,
            command="eco",
            checkpoint=args.checkpoint,
        ) as run:
            edits = load_edit_script(args.edits)
            result = run_eco(args.checkpoint, edits, cache_dir=args.cache)
            run.meta.update(edits=len(edits))
            run.qor = result.qor_summary()
    except (EcoError, CheckpointError) as exc:
        raise SystemExit(f"eco: {exc}")

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.summary(), fh, indent=2, sort_keys=True)
        print(f"wrote ECO report to {args.report}")
    if args.perf_report:
        print(f"wrote perf report to {args.perf_report}")

    m = result.metrics
    print(f"edits         : {len(edits)}" + (" (no-op)" if result.noop else ""))
    if not result.noop:
        print(
            f"clusters      : {len(result.dirty_clusters)} dirty, "
            f"{result.reused_clusters} reused "
            f"(re-swept: {len(result.resweep_clusters)})"
        )
        print(
            f"instances     : {result.free_instances} re-placed / "
            f"{result.total_instances}"
        )
    print(f"HPWL          : {m.hpwl:.1f} um")
    if m.rwl:
        print(f"routed WL     : {m.rwl:.1f} um")
        print(f"WNS / TNS     : {m.wns:.4f} / {m.tns:.4f} ns")
        print(f"power         : {m.power:.3f} mW")
    print(f"eco runtime   : {result.runtimes.get('eco_total', 0.0):.2f} s")
    return 0


def _cmd_worker(args) -> int:
    from repro.core.worker import run_worker

    return run_worker(
        args.connect,
        reconnect=args.reconnect,
        reconnect_delay=args.reconnect_delay,
        quiet=args.quiet,
    )


def _cmd_serve(args) -> int:
    from repro.serve import run_serve

    return run_serve(
        args.run_root,
        cache_dir=args.cache,
        workers=args.workers,
        host=args.host,
        port=args.port,
        job_timeout=args.job_timeout,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "flow": _cmd_flow,
        "bench-table": _cmd_bench_table,
        "cluster": _cmd_cluster,
        "sta": _cmd_sta,
        "viz": _cmd_viz,
        "report": _cmd_report,
        "top": _cmd_top,
        "cache": _cmd_cache,
        "eco": _cmd_eco,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
