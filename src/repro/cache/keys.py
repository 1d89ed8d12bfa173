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
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.ioutil import sha256_hex
from repro.netlist.design import Design

#: Schema tag: bump to invalidate every existing cache entry.
SCHEMA = "repro.cache/1"


def netlist_digest(sub: Design) -> str:
    """SHA-256 of the canonical form of an induced sub-netlist.

    Two structurally identical sub-netlists (same masters, instances,
    connectivity, weights, ports — names included, since port names
    fix the periphery ring order) produce the same digest regardless
    of which run, process, or parent design induced them.
    """
    masters = {}
    for name in sorted(sub.masters):
        m = sub.masters[name]
        masters[name] = [
            m.width,
            m.height,
            m.is_sequential,
            m.is_macro,
            sorted(
                (p.name, p.direction.value, p.capacitance, p.is_clock)
                for p in m.pins.values()
            ),
        ]
    port_names = sorted(sub.ports)
    port_vertex = {name: sub.num_instances + i for i, name in enumerate(port_names)}

    def _ref(ref) -> list:
        if ref.instance is not None:
            return [ref.instance.index, ref.pin_name]
        return [port_vertex[ref.pin_name], ref.pin_name]

    nets = []
    for net in sub.nets:
        nets.append(
            [
                net.name,
                net.weight,
                net.is_clock,
                _ref(net.driver) if net.driver is not None else None,
                [_ref(ref) for ref in net.sinks],
            ]
        )
    canonical = {
        "masters": masters,
        "instances": [[i.name, i.master.name] for i in sub.instances],
        "ports": [
            [name, sub.ports[name].direction.value] for name in port_names
        ],
        "nets": nets,
    }
    return sha256_hex(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    )


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
    return sha256_hex(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
