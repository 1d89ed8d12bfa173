"""Apply a validated edit script to a live :class:`Design`.

The apply layer is pure netlist surgery: it drives the ECO mutation
API on :class:`~repro.netlist.design.Design` (which invalidates the
memoised ``arrays()`` / hypergraph views surgically — a resize
patches the flat form in place, keeping the timing graph that lives on
it, a topology edit rebuilds them lazily) and records *what was touched* in
an :class:`EcoImpact`, which is everything the engine needs to decide
how little to recompute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set

import numpy as np

from repro import obs
from repro.eco.edits import EcoEdit, EcoError
from repro.netlist.design import Design, Instance, Net

__all__ = ["EcoImpact", "apply_edits"]


@dataclass
class EcoImpact:
    """What an applied edit script touched.

    All indices are *post-edit* (removals renumber the dense ids);
    ``instance_map`` carries the old -> new correspondence so the
    engine can remap checkpointed per-instance arrays (cluster
    assignment, positions).

    Attributes:
        touched_instances: Post-edit indices of instances whose master,
            connectivity or existence changed.
        touched_nets: Post-edit indices of nets whose pin list or load
            changed (the STA invalidation set for geometry-only edits).
        instance_map: ``old index -> new index`` array over the
            pre-edit instances; -1 marks removed instances.
        added_instances: Post-edit indices of newly created instances.
        positioned_instances: The subset of ``added_instances`` whose
            edit carried explicit seed coordinates (the engine seeds
            the rest at their cluster's centroid).
        removed_instances: Pre-edit indices of removed instances.
        removed_nets: Names of nets dropped because the edits left them
            degenerate (floating or driverless).
        topology_changed: True when any edit changed graph structure
            (add / remove / reconnect) — resize-only scripts keep the
            timing graph and all index spaces intact.
    """

    touched_instances: Set[int] = field(default_factory=set)
    touched_nets: Set[int] = field(default_factory=set)
    instance_map: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    added_instances: List[int] = field(default_factory=list)
    positioned_instances: Set[int] = field(default_factory=set)
    removed_instances: List[int] = field(default_factory=list)
    removed_nets: List[str] = field(default_factory=list)
    topology_changed: bool = False


def _require_instance(design: Design, edit: EcoEdit, position: int) -> Instance:
    if not design.has_instance(edit.instance):
        raise EcoError(
            f"edit #{position} ({edit.kind}): no instance named "
            f"{edit.instance!r} in design {design.name!r}"
        )
    return design.instance(edit.instance)


def _require_master(design: Design, edit: EcoEdit, position: int):
    master = design.masters.get(edit.master)
    if master is None:
        raise EcoError(
            f"edit #{position} ({edit.kind} {edit.instance}): no master "
            f"cell named {edit.master!r} in design {design.name!r}"
        )
    return master


def _net_or_create(design: Design, name: str, created: Set[str]) -> Net:
    try:
        return design.net(name)
    except KeyError:
        created.add(name)
        return design.add_net(name)


def apply_edits(design: Design, edits: Sequence[EcoEdit]) -> EcoImpact:
    """Apply edits in order; returns the touched-set summary.

    Raises :class:`EcoError` (naming the edit) when a name fails to
    resolve or a swap is structurally illegal; the design may be
    partially edited at that point, so callers treating errors as
    recoverable should re-load the base snapshot.
    """
    old_names = [inst.name for inst in design.instances]
    old_index_of = {name: i for i, name in enumerate(old_names)}
    touched_inst: Set[Instance] = set()
    touched_net: Set[Net] = set()
    added: Set[Instance] = set()
    positioned: Set[Instance] = set()
    removed_old_idx: List[int] = []
    created_nets: Set[str] = set()
    impact = EcoImpact()

    for position, edit in enumerate(edits):
        kind = edit.kind
        if kind in ("resize", "swap"):
            inst = _require_instance(design, edit, position)
            master = _require_master(design, edit, position)
            try:
                design.replace_master(inst, master)
            except ValueError as exc:
                raise EcoError(
                    f"edit #{position} ({kind} {edit.instance}): {exc}"
                ) from exc
            touched_inst.add(inst)
            touched_net.update(inst.pin_nets.values())
            obs.count(f"eco.edit.{kind}")
        elif kind == "remove":
            inst = _require_instance(design, edit, position)
            neighbours = list(inst.pin_nets.values())
            old_idx = old_index_of.get(inst.name)
            if old_idx is not None:
                removed_old_idx.append(old_idx)
            touched_inst.discard(inst)
            added.discard(inst)
            positioned.discard(inst)
            design.remove_instance(inst)
            for net in neighbours:
                touched_net.add(net)
                for other in net.instances():
                    touched_inst.add(other)
            impact.topology_changed = True
            obs.count("eco.edit.remove")
        elif kind == "add":
            if design.has_instance(edit.instance):
                raise EcoError(
                    f"edit #{position} (add): instance {edit.instance!r} "
                    "already exists"
                )
            master = _require_master(design, edit, position)
            inst = design.add_instance(edit.instance, master)
            if edit.x is not None or edit.y is not None:
                inst.x = edit.x if edit.x is not None else inst.x
                inst.y = edit.y if edit.y is not None else inst.y
                positioned.add(inst)
            for pin, net_name in edit.connections or ():
                if pin not in master.pins:
                    raise EcoError(
                        f"edit #{position} (add {edit.instance}): master "
                        f"{master.name} has no pin {pin!r}"
                    )
                net = _net_or_create(design, net_name, created_nets)
                try:
                    design.connect_instance_pin(net, inst, pin)
                except ValueError as exc:
                    raise EcoError(
                        f"edit #{position} (add {edit.instance}): {exc}"
                    ) from exc
                touched_net.add(net)
            added.add(inst)
            touched_inst.add(inst)
            impact.topology_changed = True
            obs.count("eco.edit.add")
        elif kind == "reconnect":
            inst = _require_instance(design, edit, position)
            if edit.pin not in inst.master.pins:
                raise EcoError(
                    f"edit #{position} (reconnect {edit.instance}): master "
                    f"{inst.master.name} has no pin {edit.pin!r}"
                )
            target = _net_or_create(design, edit.net, created_nets)
            old_net = inst.pin_nets.get(edit.pin)
            try:
                design.reconnect_pin(inst, edit.pin, target)
            except ValueError as exc:
                raise EcoError(
                    f"edit #{position} (reconnect {edit.instance}): {exc}"
                ) from exc
            if old_net is not None:
                touched_net.add(old_net)
            touched_net.add(target)
            touched_inst.add(inst)
            impact.topology_changed = True
            obs.count("eco.edit.reconnect")
        else:  # pragma: no cover - parse_edits rejects unknown kinds
            raise EcoError(f"edit #{position}: unknown kind {kind!r}")

    # Drop nets the edits left degenerate: floating (no pins) or
    # driverless-with-sinks (structurally invalid — the removed driver
    # was not replaced).  Their surviving sinks are marked touched so
    # the engine frees and re-times them.
    for net in list(touched_net):
        if net.index < 0:  # already removed via its instances going away
            touched_net.discard(net)
            continue
        driverless = net.driver is None and net.degree > 0
        if net.degree == 0 or driverless:
            for other in net.instances():
                touched_inst.add(other)
            impact.removed_nets.append(net.name)
            design.remove_net(net)
            touched_net.discard(net)
            impact.topology_changed = True
            obs.count("eco.net.dropped")

    # Old -> new instance-index correspondence (by name; removals
    # renumbered everything above the removal point).
    instance_map = np.full(len(old_names), -1, dtype=np.int64)
    for old_idx, name in enumerate(old_names):
        if design.has_instance(name):
            instance_map[old_idx] = design.instance(name).index
    impact.instance_map = instance_map
    impact.removed_instances = sorted(removed_old_idx)
    impact.added_instances = sorted(inst.index for inst in added if inst.index >= 0)
    impact.positioned_instances = {
        inst.index for inst in positioned if inst.index >= 0
    }
    impact.touched_instances = {
        inst.index for inst in touched_inst if inst.index >= 0
    }
    impact.touched_nets = {net.index for net in touched_net if net.index >= 0}
    obs.count("eco.edits.applied", len(edits))
    return impact
