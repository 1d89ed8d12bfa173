"""Output checks written against the program's data model, not its code.

Every function returns a list of failure strings (empty = pass); the
harness counts an operation as failed when any check on it fails.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Sequence

import numpy as np

HPWL_REL_TOL = 1e-9
#: Placement coordinates are cell centres; allow float slack at the
#: core edge.
CORE_TOL = 1e-6

QOR_FIELDS = ("hpwl", "rwl", "wns", "tns", "power", "hold_wns", "hold_tns")


def independent_hpwl(design) -> float:
    """HPWL from a plain walk over net pins and one NumPy reduction.

    Deliberately avoids ``repro.place.hpwl`` and the array-native
    netlist form it reads: the only things shared with the program are
    the object model (nets, pins, instance / port coordinates) and the
    metric's definition (non-clock nets with at least two pins).
    """
    xs: List[float] = []
    ys: List[float] = []
    net_of_pin: List[int] = []
    nets = 0
    for net in design.nets:
        if net.is_clock or net.degree < 2:
            continue
        for ref in net.pins():
            if ref.instance is not None:
                xs.append(ref.instance.x)
                ys.append(ref.instance.y)
            else:
                port = design.ports[ref.pin_name]
                xs.append(port.x)
                ys.append(port.y)
            net_of_pin.append(nets)
        nets += 1
    if not nets:
        return 0.0
    x = np.asarray(xs)
    y = np.asarray(ys)
    owner = np.asarray(net_of_pin)
    total = 0.0
    for coords in (x, y):
        high = np.full(nets, -np.inf)
        low = np.full(nets, np.inf)
        np.maximum.at(high, owner, coords)
        np.minimum.at(low, owner, coords)
        total += float((high - low).sum())
    return total


def check_hpwl(design, reported: float) -> List[str]:
    recomputed = independent_hpwl(design)
    if abs(recomputed - reported) > HPWL_REL_TOL * max(abs(reported), 1.0):
        return [f"hpwl {reported!r} != independent recomputation {recomputed!r}"]
    return []


def check_placement(design) -> List[str]:
    """Every movable instance is finite and inside the core."""
    fp = design.floorplan
    failures = []
    outside = 0
    for inst in design.instances:
        if inst.fixed:
            continue
        if not (math.isfinite(inst.x) and math.isfinite(inst.y)):
            failures.append(f"instance {inst.name} has non-finite coordinates")
            break
        if not (
            fp.core_llx - CORE_TOL <= inst.x <= fp.core_urx + CORE_TOL
            and fp.core_lly - CORE_TOL <= inst.y <= fp.core_ury + CORE_TOL
        ):
            outside += 1
    if outside:
        failures.append(f"{outside} movable instance(s) outside the core")
    return failures


def check_partition(cluster_of: Sequence[int], num_instances: int) -> List[str]:
    """``cluster_of`` assigns every instance to exactly one dense id."""
    assignment = np.asarray(cluster_of)
    if len(assignment) != num_instances:
        return [
            f"cluster_of covers {len(assignment)} of {num_instances} instances"
        ]
    if num_instances == 0:
        return []
    if assignment.min() < 0:
        return ["cluster_of holds a negative cluster id"]
    used = np.unique(assignment)
    if len(used) != int(assignment.max()) + 1:
        return ["cluster ids are not dense (an id in range has no member)"]
    return []


def check_shapes(shapes: Dict[int, Any], grid: Sequence[Any]) -> List[str]:
    """Every chosen shape is one of the candidate grid's."""
    allowed = {(c.aspect_ratio, c.utilization) for c in grid}
    bad = [
        cid
        for cid, shape in shapes.items()
        if (shape.aspect_ratio, shape.utilization) not in allowed
    ]
    return [f"cluster(s) {bad[:5]} chose a shape outside the grid"] if bad else []


def check_sweeps(selection, expected_clusters: int, grid_size: int) -> List[str]:
    """An exact sweep evaluated the whole grid, validly, per cluster."""
    failures = []
    if len(selection.sweeps) != expected_clusters:
        failures.append(
            f"{len(selection.sweeps)} clusters swept, expected {expected_clusters}"
        )
    for sweep in selection.sweeps:
        valid = sum(1 for e in sweep.evaluations if e.is_valid)
        if valid != grid_size or len(sweep.evaluations) != grid_size:
            failures.append(
                f"cluster {sweep.cluster_id}: {valid} valid of "
                f"{len(sweep.evaluations)} evaluations, expected {grid_size}"
            )
    return failures


def check_metrics_finite(metrics) -> List[str]:
    bad = [
        name
        for name in QOR_FIELDS
        if getattr(metrics, name, None) is None
        or not math.isfinite(getattr(metrics, name))
    ]
    return [f"non-finite QoR field(s): {bad}"] if bad else []


def qor_digest(metrics, shapes: Dict[int, Any]) -> str:
    """SHA-256 over the exact QoR floats and the chosen shapes."""
    payload = {
        "qor": {name: repr(getattr(metrics, name)) for name in QOR_FIELDS},
        "shapes": [
            [cid, repr(s.aspect_ratio), repr(s.utilization)]
            for cid, s in sorted(shapes.items())
        ],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def same_metrics(left, right) -> List[str]:
    """Bit-for-bit equality of two PPA metric records."""
    diff = [
        name
        for name in QOR_FIELDS
        if getattr(left, name) != getattr(right, name)
    ]
    return [f"QoR field(s) differ bit-for-bit: {diff}"] if diff else []


def check_flow_result(design, result, grid: Sequence[Any]) -> List[str]:
    """The checks every full-flow operation shares."""
    failures = check_metrics_finite(result.metrics)
    failures += check_hpwl(design, result.metrics.hpwl)
    failures += check_placement(design)
    failures += check_partition(result.clustering.cluster_of, design.num_instances)
    failures += check_shapes(result.selection.shapes, grid)
    if len(result.selection.shapes) != result.num_clusters:
        failures.append("shape selection does not cover every cluster")
    return failures
