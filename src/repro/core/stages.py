"""The flow's stage records as :mod:`repro.codec` frames.

Each stage of :class:`~repro.core.flow.ClusteredPlacementFlow` returns
one payload — a :class:`ClusteringResult`, a :class:`VPRSelection`, the
per-cluster digests, the seeded placement, the ``eco_base`` design
snapshot, the :class:`PPAMetrics` — and both stores that hold stage
records (a run's checkpoint, the shared cache) keep it as one frame:
scalars in the JSON header, arrays as ``.npy`` columns.  The header
also names the stage and the content key the record was written
under, so a record copied or renamed onto another key is refused.

:func:`encode_stage` builds the frame; :func:`stage_decoder` returns
the inverse for one (stage, key), which validates every field before
building the payload and raises ``ValueError`` on anything else.  The
stores apply their own policy to that error: the shared cache counts
a miss, a checkpoint raises a ``CheckpointError`` naming the file.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.codec import decode_frame, encode_frame
from repro.core.hier_clustering import HierarchyClusteringResult
from repro.core.metrics import PPAMetrics
from repro.core.ppa_clustering import ClusteringResult
from repro.core.shapes import ShapeCandidate
from repro.core.vpr import CandidateEvaluation, VPRSelection, VPRSweepResult

__all__ = ["encode_stage", "stage_decoder"]

#: Header tag of every stage record.
FORM = "repro.stage/1"

_METRIC_FIELDS = ("hpwl", "rwl", "wns", "tns", "power", "hold_wns", "hold_tns")

Columns = Dict[str, np.ndarray]


# ----------------------------------------------------------------------
# payload -> (header, columns)
# ----------------------------------------------------------------------
def _clustering_fields(result: ClusteringResult) -> Tuple[dict, Columns]:
    columns = {"cluster_of": np.asarray(result.cluster_of)}
    if result.edge_scores is not None:
        columns["edge_scores"] = np.asarray(result.edge_scores)
    hierarchy = None
    if result.hierarchy is not None:
        columns["hierarchy_cluster_of"] = np.asarray(result.hierarchy.cluster_of)
        hierarchy = {
            "best_level": int(result.hierarchy.best_level),
            "rent_by_level": [
                [int(level), float(rent)]
                for level, rent in result.hierarchy.rent_by_level.items()
            ],
        }
    return {"runtimes": dict(result.runtimes), "hierarchy": hierarchy}, columns


def _selection_fields(selection: VPRSelection) -> Tuple[dict, Columns]:
    shapes = list(selection.shapes.items())
    sweeps = selection.sweeps
    evaluations = [e for sweep in sweeps for e in sweep.evaluations]

    def floats(values) -> np.ndarray:
        return np.array(list(values), dtype=np.float64)

    def ints(values) -> np.ndarray:
        return np.array(list(values), dtype=np.int64)

    columns = {
        "shape_cluster": ints(c for c, _ in shapes),
        "shape_ar": floats(s.aspect_ratio for _, s in shapes),
        "shape_util": floats(s.utilization for _, s in shapes),
        "sweep_cluster": ints(s.cluster_id for s in sweeps),
        "sweep_size": ints(len(s.evaluations) for s in sweeps),
        "sweep_runtime": floats(s.runtime for s in sweeps),
        "sweep_best_ar": floats(s.best.aspect_ratio for s in sweeps),
        "sweep_best_util": floats(s.best.utilization for s in sweeps),
        "eval_ar": floats(e.candidate.aspect_ratio for e in evaluations),
        "eval_util": floats(e.candidate.utilization for e in evaluations),
        "eval_hpwl": floats(e.hpwl_cost for e in evaluations),
        "eval_congestion": floats(e.congestion_cost for e in evaluations),
    }
    header = {
        "skipped_clusters": int(selection.skipped_clusters),
        "runtime": float(selection.runtime),
        "errors": [e.error for e in evaluations],
    }
    return header, columns


def _digests_fields(digests: Dict[int, Tuple[str, float]]) -> Tuple[dict, Columns]:
    return {
        "digests": [[int(c), d, float(area)] for c, (d, area) in digests.items()]
    }, {}


def _seeded_fields(state: Dict[str, Any]) -> Tuple[dict, Columns]:
    header = {"hpwl": float(state["hpwl"]), "runtimes": dict(state["runtimes"])}
    return header, {"x": state["x"], "y": state["y"]}


def _eco_base_fields(base: Dict[str, Any]) -> Tuple[dict, Columns]:
    snapshot = base["design"]
    return {"form": snapshot["form"], "snapshot": snapshot["header"]}, dict(
        snapshot["columns"]
    )


def _metrics_fields(metrics: PPAMetrics) -> Tuple[dict, Columns]:
    header = {
        name: None if getattr(metrics, name) is None else float(getattr(metrics, name))
        for name in _METRIC_FIELDS
    }
    header["runtimes"] = dict(metrics.runtimes)
    return header, {}


# ----------------------------------------------------------------------
# (header, columns) -> payload, validated
# ----------------------------------------------------------------------
def _column(columns: Columns, name: str, kind: str, rows: Optional[int] = None):
    column = columns.get(name)
    if not isinstance(column, np.ndarray) or column.ndim != 1:
        raise ValueError(f"column {name!r} is missing or not 1-d")
    if column.dtype.kind not in kind:
        raise ValueError(f"column {name!r} has dtype {column.dtype}, not {kind!r}")
    if rows is not None and len(column) != rows:
        raise ValueError(f"column {name!r} has {len(column)} rows, expected {rows}")
    return column


def _number(value: Any, name: str, optional: bool = False) -> Optional[float]:
    if value is None and optional:
        return None
    if type(value) not in (int, float):
        raise ValueError(f"field {name!r} is not a number")
    return float(value)


def _runtimes(value: Any) -> Dict[str, float]:
    if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
        raise ValueError("field 'runtimes' is not a name -> seconds mapping")
    return {k: _number(v, "runtimes") for k, v in value.items()}


def _assignment(columns: Columns, name: str, instances: Optional[int]) -> np.ndarray:
    column = _column(columns, name, "iu", instances)
    if len(column) and column.min() < 0:
        raise ValueError(f"column {name!r} holds a negative cluster id")
    return column


def _clustering_payload(header, columns, instances) -> ClusteringResult:
    cluster_of = _assignment(columns, "cluster_of", instances)
    edge_scores = None
    if "edge_scores" in columns:
        edge_scores = _column(columns, "edge_scores", "f")
    hierarchy = None
    if header.get("hierarchy") is not None:
        record = header["hierarchy"]
        if not isinstance(record, dict) or type(record.get("best_level")) is not int:
            raise ValueError("field 'hierarchy' is malformed")
        rents = record.get("rent_by_level")
        if not isinstance(rents, list) or not all(
            isinstance(r, list) and len(r) == 2 and type(r[0]) is int for r in rents
        ):
            raise ValueError("field 'hierarchy.rent_by_level' is malformed")
        hierarchy = HierarchyClusteringResult(
            cluster_of=_assignment(columns, "hierarchy_cluster_of", instances),
            best_level=record["best_level"],
            rent_by_level={lvl: _number(r, "rent_by_level") for lvl, r in rents},
        )
    return ClusteringResult(
        cluster_of=cluster_of,
        hierarchy=hierarchy,
        edge_scores=edge_scores,
        runtimes=_runtimes(header.get("runtimes")),
    )


def _shapes(ar: np.ndarray, util: np.ndarray) -> List[ShapeCandidate]:
    return [ShapeCandidate(float(a), float(u)) for a, u in zip(ar, util)]


def _selection_payload(header, columns, instances) -> VPRSelection:
    del instances
    clusters = _column(columns, "shape_cluster", "i")
    n = len(clusters)
    shapes = _shapes(
        _column(columns, "shape_ar", "f", n), _column(columns, "shape_util", "f", n)
    )
    sweep_cluster = _column(columns, "sweep_cluster", "i")
    m = len(sweep_cluster)
    sizes = _column(columns, "sweep_size", "i", m)
    runtimes = _column(columns, "sweep_runtime", "f", m)
    best = _shapes(
        _column(columns, "sweep_best_ar", "f", m),
        _column(columns, "sweep_best_util", "f", m),
    )
    total = int(sizes.sum()) if m else 0
    if m and sizes.min() < 0:
        raise ValueError("column 'sweep_size' holds a negative count")
    candidates = _shapes(
        _column(columns, "eval_ar", "f", total),
        _column(columns, "eval_util", "f", total),
    )
    hpwl = _column(columns, "eval_hpwl", "f", total)
    congestion = _column(columns, "eval_congestion", "f", total)
    errors = header.get("errors")
    if not isinstance(errors, list) or len(errors) != total or not all(
        e is None or isinstance(e, str) for e in errors
    ):
        raise ValueError("field 'errors' does not match the evaluations")
    evaluations = [
        CandidateEvaluation(c, float(h), float(g), e)
        for c, h, g, e in zip(candidates, hpwl, congestion, errors)
    ]
    sweeps, start = [], 0
    for j in range(m):
        stop = start + int(sizes[j])
        sweeps.append(
            VPRSweepResult(
                int(sweep_cluster[j]),
                evaluations[start:stop],
                best[j],
                float(runtimes[j]),
            )
        )
        start = stop
    skipped = header.get("skipped_clusters")
    if type(skipped) is not int:
        raise ValueError("field 'skipped_clusters' is not an integer")
    return VPRSelection(
        shapes={int(c): s for c, s in zip(clusters, shapes)},
        sweeps=sweeps,
        skipped_clusters=skipped,
        runtime=_number(header.get("runtime"), "runtime"),
    )


def _digests_payload(header, columns, instances) -> Dict[int, Tuple[str, float]]:
    del columns, instances
    rows = header.get("digests")
    if not isinstance(rows, list) or not all(
        isinstance(r, list)
        and len(r) == 3
        and type(r[0]) is int
        and isinstance(r[1], str)
        for r in rows
    ):
        raise ValueError("field 'digests' is malformed")
    return {c: (d, _number(area, "digests")) for c, d, area in rows}


def _seeded_payload(header, columns, instances) -> Dict[str, Any]:
    x = _column(columns, "x", "f", instances)
    return {
        "x": x,
        "y": _column(columns, "y", "f", len(x)),
        "hpwl": _number(header.get("hpwl"), "hpwl"),
        "runtimes": _runtimes(header.get("runtimes")),
    }


def _eco_base_payload(header, columns, instances) -> Dict[str, Any]:
    # The snapshot is validated where it is decoded into a design
    # (``design_from_snapshot``), which names the offending field.
    del instances
    return {
        "design": {
            "form": header.get("form"),
            "header": header.get("snapshot"),
            "columns": columns,
        }
    }


def _metrics_payload(header, columns, instances) -> PPAMetrics:
    del columns, instances
    values = {
        name: _number(header.get(name), name, optional=name != "hpwl")
        for name in _METRIC_FIELDS
    }
    return PPAMetrics(**values, runtimes=_runtimes(header.get("runtimes")))


_CODECS: Dict[str, Tuple[Callable, Callable]] = {
    "clustering": (_clustering_fields, _clustering_payload),
    "vpr": (_selection_fields, _selection_payload),
    "vpr_digests": (_digests_fields, _digests_payload),
    "seeded": (_seeded_fields, _seeded_payload),
    "eco_base": (_eco_base_fields, _eco_base_payload),
    "metrics": (_metrics_fields, _metrics_payload),
}


def encode_stage(stage: str, key: str, payload: Any) -> bytes:
    """One stage payload as the frame stored under ``key``."""
    fields, columns = _CODECS[stage][0](payload)
    header = {"form": FORM, "stage": stage, "key": key, "fields": fields}
    return encode_frame(header, columns)


def stage_decoder(
    stage: str, key: str, instances: Optional[int] = None
) -> Callable[[bytes], Any]:
    """``bytes -> payload`` for the record of ``stage`` under ``key``;
    ``ValueError`` on a frame that is not exactly that record (with
    ``instances`` set, per-instance columns must have that length)."""
    build = _CODECS[stage][1]

    def decode(data: bytes) -> Any:
        header, columns = decode_frame(data)
        if (header.get("form"), header.get("stage"), header.get("key")) != (
            FORM,
            stage,
            key,
        ):
            raise ValueError(f"not the {stage!r} record under key {key[:12]}...")
        fields = header.get("fields")
        if not isinstance(fields, dict):
            raise ValueError("record lacks its 'fields' object")
        return build(fields, columns, instances)

    return decode
