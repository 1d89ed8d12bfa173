"""Compare two spine documents, one row per workload x end-to-end metric.

    python3 benchmarks/spine/compare.py A.json B.json

Each document (``run.py --repeats R --out FILE``) holds several runs
per workload.  A row shows both sides' median and quartiles over those
runs, the bound ``BENCHMARK.json`` fixes for the metric, and a verdict:

* ``unresolved`` — the A side's own interquartile spread, as a share of
  its median, exceeds the bound: the runs cannot tell the sides apart;
* ``worse`` / ``better`` — B's median is beyond A's by more than the
  bound, in the metric's bad / good direction;
* ``same`` — within the bound.

Exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.spine import harness, stats  # noqa: E402


def end_to_end_values(document: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values over the document's untraced runs."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        if run["trace"] or run["result"] is None:
            continue
        for metric, entry in run["result"]["metrics"].items():
            out.setdefault((run["workload"], metric), []).append(entry["value"])
    return out


def verdict(
    a: List[float], b: List[float], bound: float, better: str
) -> str:
    """The row verdict (see module docstring)."""
    _, a_median, _ = stats.quartiles(a)
    _, b_median, _ = stats.quartiles(b)
    if len(a) > 1 and stats.spread(a) > bound:
        return "unresolved"
    change = (b_median - a_median) / abs(a_median) if a_median else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(
    a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """All rows, in BENCHMARK.json order."""
    a_values, b_values = end_to_end_values(a), end_to_end_values(b)
    rows = []
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in a_values or key not in b_values:
                continue
            left, right = a_values[key], b_values[key]
            rows.append(
                {
                    "workload": key[0],
                    "metric": key[1],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": stats.quartiles(left),
                    "b": stats.quartiles(right),
                    "a_spread": stats.spread(left) if len(left) > 1 else 0.0,
                    "n": (len(left), len(right)),
                    "identical": left == right,
                    "verdict": verdict(left, right, metric["bound"], metric["better"]),
                }
            )
    return rows


def _triple(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(documents[0], documents[1], harness.load_benchmark_json())
    print(
        f"{'workload':<13} {'metric':<14} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'A spread':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        note = " (bit-identical)" if row["identical"] else ""
        print(
            f"{row['workload']:<13} {row['metric']:<14} {_triple(row['a']):<34} "
            f"{_triple(row['b']):<34} {row['a_spread']:>8.4f} {row['bound']:>6.2f}  "
            f"{row['verdict']}{note}"
        )
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(
        f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved"
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
