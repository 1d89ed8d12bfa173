"""Content addresses for V-P&R evaluation results.

A cache key must change whenever anything that can change the
evaluation result changes, and for nothing else.  The inputs of one
(cluster, candidate) evaluation are exactly:

* the induced **sub-netlist** (instances, masters, net connectivity,
  net weights, ports) — canonicalised and hashed by
  :func:`netlist_digest`;
* the **shape candidate** (aspect ratio, utilization);
* the **evaluation-relevant config knobs** — collected by
  :func:`config_fingerprint`.  ``delta`` is deliberately excluded: it
  weighs the two cost components at *selection* time and never enters
  the evaluation itself, so sweeping delta re-uses cached costs;
* the cache **schema version**, so a change to what is stored (or how
  keys are derived) invalidates every old entry at once.

Canonical netlist form: instance/net records in dense index order,
pin references as ``(vertex, pin_name)`` with the same vertex
convention as :class:`~repro.place.problem.PlacementProblem`
(instances first, then sorted ports), master geometry and pin
electrical data included.  Coordinates are *not* included — the
evaluation re-places from scratch — but the floorplan is derived from
(cell area, candidate), both of which are covered.

Flow **stage records** (:mod:`repro.core.stages`) are addressed by a
SHA-256 chain instead.  :func:`input_key` hashes the design exactly as
a flow receives it — every column of its
:func:`~repro.netlist.snapshot.design_snapshot`, coordinates, fixed
flags, floorplan, clock period, net weights and activity included —
together with :func:`source_digest`, the hash of this package's own
source, so a record written by other code is never served.  Each
stage's :func:`stage_key` then hashes its parent stage's key and the
configuration fields that stage reads (``docs/recovery.md`` lists
them).  A changed knob therefore changes its own stage's key and every
downstream key, and nothing upstream.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.ioutil import sha256_hex
from repro.netlist.arrays import DIRECTIONS, NetlistArrays
from repro.netlist.design import Design
from repro.netlist.snapshot import design_snapshot

#: Schema tag: bump to invalidate every existing cache entry.
SCHEMA = "repro.cache/1"

#: Schema tag of the stage-key chain.
STAGE_SCHEMA = "repro.stage-key/1"


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def netlist_digest(arrays: NetlistArrays) -> str:
    """SHA-256 of the canonical form of a flat netlist: an induced
    sub-netlist, or a design's ``design.arrays()``.

    Two structurally identical sub-netlists (same masters, instances,
    connectivity, weights, ports — names included, since port names
    fix the periphery ring order) produce the same digest regardless
    of which run, process, or parent design induced them.  Read off
    the columns (live net weights), pin by pin.
    """
    pool, mp_ptr = arrays.name_pool, arrays.mp_ptr.tolist()
    pins = list(
        zip(
            [pool[i] for i in arrays.mp_name_idx.tolist()],
            [DIRECTIONS[d].value for d in arrays.mp_dir.tolist()],
            arrays.mp_cap.tolist(),
            arrays.mp_is_clock.tolist(),
        )
    )
    masters = {
        name: [*row, sorted(pins[mp_ptr[m] : mp_ptr[m + 1]])]
        for m, (name, *row) in enumerate(
            zip(
                arrays.master_names,
                arrays.m_width.tolist(),
                arrays.m_height.tolist(),
                arrays.m_is_seq.tolist(),
                arrays.m_is_macro.tolist(),
            )
        )
    }
    # Pin references as (vertex, pin name): instances, then sorted ports.
    vertex, pin_name = arrays.pin_vertices().tolist(), arrays.pin_name_idx.tolist()
    refs = [[v, pool[n]] for v, n in zip(vertex, pin_name)]
    ptr = arrays.net_ptr.tolist()
    canonical = {
        "masters": masters,
        "instances": [
            [name, arrays.master_names[m]]
            for name, m in zip(arrays.inst_names, arrays.inst_master.tolist())
        ],
        "ports": sorted(
            [name, DIRECTIONS[d].value]
            for name, d in zip(arrays.port_names, arrays.port_dir.tolist())
        ),
        "nets": [
            [name, weight, clock, refs[a] if driven else None, refs[a + driven : b]]
            for name, weight, clock, driven, a, b in zip(
                arrays.net_names,
                arrays.current_net_weights().tolist(),
                arrays.net_is_clock.tolist(),
                arrays.net_has_driver.tolist(),
                ptr,
                ptr[1:],
            )
        ],
    }
    return sha256_hex(_canonical(canonical))


def config_fingerprint(config) -> Dict[str, object]:
    """What of a ``VPRConfig`` influences one evaluation's result: the
    fields it declares as ``EVALUATION_FIELDS`` plus the evaluation's
    constants.

    Scheduling and fault-tolerance knobs (jobs, chunk_size,
    item_timeout, fleet_listen) and the selection-only ``delta`` are
    excluded: they may
    change wall-clock or failure handling, never a successful
    evaluation's costs.
    """
    return {
        **{name: getattr(config, name) for name in config.EVALUATION_FIELDS},
        **config.EVALUATION_CONSTANTS,
    }


def cache_key(
    digest: str,
    candidate,
    config,
    cell_area: Optional[float] = None,
) -> str:
    """The content address of one (sub-netlist, candidate, config) item.

    ``cell_area`` sizes the virtual die; it is derived from the parent
    design's instances (not the sub-netlist's masters alone), so it is
    hashed explicitly.
    """
    payload = {
        "schema": SCHEMA,
        "netlist": digest,
        "ar": candidate.aspect_ratio,
        "util": candidate.utilization,
        "cell_area": cell_area,
        "config": config_fingerprint(config),
    }
    return sha256_hex(_canonical(payload))


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the ``repro`` package (path
    and bytes), computed once per process; a forked process inherits
    it (the serve zygote computes it before its first fork)."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def input_key(design: Design) -> str:
    """The root of the stage-key chain: the design as a flow receives
    it, and the code that will process it."""
    snapshot = design_snapshot(design)
    digest = hashlib.sha256(
        _canonical(
            {
                "schema": STAGE_SCHEMA,
                "source": source_digest(),
                "header": snapshot["header"],
            }
        )
    )
    for name in sorted(snapshot["columns"]):
        column = np.ascontiguousarray(snapshot["columns"][name])
        digest.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def stage_key(stage: str, parent: str, **fields) -> str:
    """The content key of one stage record: its name, its parent's key
    and the JSON-able configuration ``fields`` the stage reads."""
    return sha256_hex(
        _canonical(
            {
                "schema": STAGE_SCHEMA,
                "stage": stage,
                "parent": parent,
                "fields": fields,
            }
        )
    )
