"""Netlist-core scaling benchmark: arrays vs objects -> BENCH_scale.json.

Measures, per design size (10k -> 1M instances by default):

* **arrays**: the array-native path — ``generate_arrays`` build wall,
  hypergraph construction (``hyperedge_csr`` + ``Hypergraph.from_csr``),
  STA-graph construction (``TimingGraph`` on bare ``NetlistArrays``),
  an HPWL evaluation, the exact ``NetlistArrays.nbytes`` footprint and
  the process peak RSS.
* **object** (up to ``--object-max`` instances): the same netlist
  materialized with ``to_design``, a per-net HPWL walk and a deep
  ``sys.getsizeof`` traversal of the linked graph.

Each (size, representation) cell runs in its own subprocess so peak-RSS
numbers are not polluted by earlier cells.  Results are written to
``BENCH_scale.json``; at the gate size (default 100k) ``--gate``
enforces the PR's acceptance thresholds:

* arrays bytes/instance at least ``--min-bytes-ratio`` (5x) below the
  object graph's,
* absolute smoke ceilings on the arrays build wall and peak RSS.

Usage::

    python benchmarks/bench_scale.py                        # full ladder
    python benchmarks/bench_scale.py --smoke --gate         # CI: 100k only
    python benchmarks/bench_scale.py --sizes 10000,1000000
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIZES = (10_000, 100_000, 1_000_000)
GATE_SIZE = 100_000


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (shared probe with the live monitor)."""
    from repro.perf import peak_rss_bytes

    return peak_rss_bytes() / (1024.0 * 1024.0)


def _spec(size: int):
    from repro.designs.generator import DesignSpec

    return DesignSpec(name=f"scale{size}", num_instances=size, seed=1)


# ----------------------------------------------------------------------
# Child measurements (one subprocess per cell)
# ----------------------------------------------------------------------
def _measure_arrays(size: int) -> dict:
    import numpy as np

    from repro.designs.generator import generate_arrays
    from repro.netlist.hypergraph import Hypergraph
    from repro.place.hpwl import hpwl_arrays
    from repro.sta.graph import TimingGraph

    t0 = time.perf_counter()
    arrays = generate_arrays(_spec(size))
    t_gen = time.perf_counter() - t0

    t0 = time.perf_counter()
    indptr, verts, sel = arrays.hyperedge_csr()
    hg = Hypergraph.from_csr(
        arrays.num_instances,
        indptr,
        verts,
        edge_weights=arrays.current_net_weights()[sel],
        vertex_areas=arrays.current_inst_areas(),
        edge_net_indices=sel,
    )
    t_hyper = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph = TimingGraph(arrays)
    t_sta = time.perf_counter() - t0

    t0 = time.perf_counter()
    pin_vertex, offsets, _ = arrays.pin_vertex_csr()
    n_total = arrays.num_instances + arrays.num_ports
    xs, ys = arrays.current_positions()
    x = np.zeros(n_total)
    y = np.zeros(n_total)
    x[: arrays.num_instances] = xs
    y[: arrays.num_instances] = ys
    wl = hpwl_arrays(pin_vertex, offsets, x, y)
    t_hpwl = time.perf_counter() - t0

    return {
        "repr": "arrays",
        "instances": arrays.num_instances,
        "nets": arrays.num_nets,
        "pins": arrays.num_pins,
        "sta_nodes": graph.num_nodes,
        "hypergraph_edges": hg.num_edges,
        "hpwl": wl,
        "bytes": arrays.nbytes,
        "bytes_per_instance": arrays.nbytes / size,
        "gen_s": t_gen,
        "hypergraph_s": t_hyper,
        "sta_s": t_sta,
        "hpwl_s": t_hpwl,
        "build_s": t_hyper + t_sta,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _deep_bytes(design) -> int:
    """Deep ``sys.getsizeof`` of the linked netlist graph.

    Counts each object once (shared strings / interned pins are not
    double-counted) and ignores allocator overhead, so it *understates*
    the object graph's real RSS — a conservative denominator for the
    bytes-ratio gate.
    """
    seen: set = set()

    def add(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sys.getsizeof(obj)

    total = add(design)
    total += add(design.ports) + add(design.masters)
    total += add(design.instances) + add(design.nets)
    for name, port in design.ports.items():
        total += add(name) + add(port) + add(port.__dict__)
    for master in design.masters.values():
        total += add(master) + add(master.__dict__)
        total += add(master.pins) + add(master.name)
        for pin_name, pin in master.pins.items():
            total += add(pin_name) + add(pin)
    for inst in design.instances:
        total += add(inst) + add(inst.name) + add(inst.pin_nets)
        total += add(inst.index) + add(inst.x) + add(inst.y)
        for pin_name in inst.pin_nets:
            total += add(pin_name)
    for net in design.nets:
        total += add(net) + add(net.name) + add(net.sinks) + add(net.index)
        if net.driver is not None:
            total += add(net.driver)
        for ref in net.sinks:
            total += add(ref)
    total += add(design._instance_by_name) + add(design._net_by_name)
    return total


def _measure_object(size: int) -> dict:
    from repro.designs.generator import generate_arrays
    from repro.place.hpwl import net_hpwl

    arrays = generate_arrays(_spec(size))
    t0 = time.perf_counter()
    design = arrays.to_design()
    t_gen = time.perf_counter() - t0
    del arrays
    design._netlist_arrays = None
    gc.collect()

    t0 = time.perf_counter()
    wl = sum(net_hpwl(design, net) for net in design.nets if not net.is_clock)
    t_hpwl = time.perf_counter() - t0

    deep = _deep_bytes(design)
    return {
        "repr": "object",
        "instances": design.num_instances,
        "nets": design.num_nets,
        "pins": sum(net.degree for net in design.nets),
        "hpwl": wl,
        "bytes": deep,
        "bytes_per_instance": deep / size,
        "gen_s": t_gen,
        "hpwl_s": t_hpwl,
        "peak_rss_mb": _peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# Parent driver
# ----------------------------------------------------------------------
def _run_cell(size: int, repr_name: str, timeout: int) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, __file__, "--child", repr_name, "--child-size", str(size)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=str(REPO_ROOT),
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"bench child {repr_name}@{size} failed:\n{out.stdout}\n{out.stderr}"
        )
    return json.loads(out.stdout.splitlines()[-1])


def _check_gates(results: dict, args) -> list:
    failures = []
    gate = results["cells"].get(str(args.gate_size), {})
    arrays = gate.get("arrays")
    obj = gate.get("object")
    if arrays is None:
        return [f"gate size {args.gate_size} was not measured"]
    if arrays["gen_s"] + arrays["build_s"] > args.max_build_wall:
        failures.append(
            f"arrays gen+build {arrays['gen_s'] + arrays['build_s']:.2f}s "
            f"exceeds {args.max_build_wall:.1f}s at {args.gate_size}"
        )
    if arrays["peak_rss_mb"] > args.max_rss_mb:
        failures.append(
            f"arrays peak RSS {arrays['peak_rss_mb']:.0f}MB exceeds "
            f"{args.max_rss_mb:.0f}MB at {args.gate_size}"
        )
    if obj is not None:
        bytes_ratio = obj["bytes_per_instance"] / arrays["bytes_per_instance"]
        results["bytes_ratio"] = bytes_ratio
        if bytes_ratio < args.min_bytes_ratio:
            failures.append(
                f"bytes/instance ratio {bytes_ratio:.2f}x below "
                f"{args.min_bytes_ratio:.1f}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", choices=("arrays", "object"))
    parser.add_argument("--child-size", type=int)
    parser.add_argument("--sizes", default=",".join(str(s) for s in DEFAULT_SIZES))
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"measure the gate size ({GATE_SIZE}) only",
    )
    parser.add_argument("--gate", action="store_true", help="enforce thresholds")
    parser.add_argument("--gate-size", type=int, default=GATE_SIZE)
    parser.add_argument(
        "--object-max",
        type=int,
        default=200_000,
        help="skip the object representation above this size",
    )
    parser.add_argument("--min-bytes-ratio", type=float, default=5.0)
    parser.add_argument("--max-build-wall", type=float, default=20.0)
    parser.add_argument("--max-rss-mb", type=float, default=2048.0)
    parser.add_argument("--timeout", type=int, default=900)
    parser.add_argument(
        "--json",
        default=str(REPO_ROOT / "benchmarks" / "results" / "BENCH_scale.json"),
    )
    args = parser.parse_args(argv)

    if args.child:
        sys.path.insert(0, str(REPO_ROOT / "src"))
        fn = _measure_arrays if args.child == "arrays" else _measure_object
        print(json.dumps(fn(args.child_size)))
        return 0

    sizes = (
        [args.gate_size]
        if args.smoke
        else sorted({int(s) for s in args.sizes.split(",")})
    )
    results = {"sizes": sizes, "cells": {}}
    for size in sizes:
        cell = {}
        cell["arrays"] = _run_cell(size, "arrays", args.timeout)
        if size <= args.object_max:
            cell["object"] = _run_cell(size, "object", args.timeout)
        results["cells"][str(size)] = cell
        a = cell["arrays"]
        line = (
            f"{size:>9}  arrays: gen {a['gen_s']:6.2f}s  "
            f"hyper {a['hypergraph_s']:6.2f}s  sta {a['sta_s']:6.2f}s  "
            f"{a['bytes_per_instance']:6.1f} B/inst  "
            f"peak {a['peak_rss_mb']:7.1f}MB"
        )
        print(line)
        if "object" in cell:
            o = cell["object"]
            print(
                f"{'':>9}  object: gen {o['gen_s']:6.2f}s  "
                f"{o['bytes_per_instance']:6.1f} B/inst  "
                f"peak {o['peak_rss_mb']:7.1f}MB"
            )

    failures = _check_gates(results, args)
    results["gates"] = {
        "enforced": bool(args.gate),
        "gate_size": args.gate_size,
        "failures": failures,
    }
    if "bytes_ratio" in results:
        print(
            f"\n@{args.gate_size}: bytes ratio {results['bytes_ratio']:.2f}x "
            f"(gate >= {args.min_bytes_ratio:.1f}x)"
        )

    out = Path(args.json)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")

    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 1 if args.gate else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
