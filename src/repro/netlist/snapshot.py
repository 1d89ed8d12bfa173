"""The one codec of the one flat netlist form.

A snapshot *is* a :class:`~repro.netlist.arrays.NetlistArrays` — a
design's ``arrays()`` or a V-P&R sub's columns (live attributes through
the ``current_*`` gathers, plus instance x / y / fixed) — split into a
JSON-able ``header`` (names and scalars) and numeric ``ndarray``
``columns``: the two halves of a :mod:`repro.codec` frame, which
carries it in a fleet sweep state and a checkpoint's ``eco_base``
record with no pickle and no walk of the linked :class:`Design` graph.
:func:`netlist_from_snapshot` decodes the columns alone (a fleet
worker's subs); :func:`design_from_snapshot` adds the object view via
:meth:`NetlistArrays.to_design`, so an ``EcoSession``'s first
``design.arrays()`` is a hit.  The content digest
(:func:`repro.cache.netlist_digest`) survives either.  Payloads cross
process and disk boundaries: decoding validates first.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.netlist.arrays import COLUMNS, NetlistArrays
from repro.netlist.design import Design

#: Form tag; a payload of any other form is refused, never guessed at.
FORM = "repro.netlist.arrays/2"
_SCALARS = ("name", "floorplan", "clock_period", "clock_port", "input_activity")
#: List-valued header fields -> the row group each one sizes.
_LISTS = {
    "name_pool": "names",
    "master_names": "masters",
    "master_classes": "masters",
    "inst_names": "instances",
    "net_names": "nets",
}
#: Row groups without a name list, sized by one of their columns.
_SIZED_BY = {"slots": "mp_cap", "ports": "port_cap", "pins": "pin_inst"}
_PLACEMENT = {
    "inst_x": ("f", "instances", None),
    "inst_y": ("f", "instances", None),
    "inst_fixed": ("b", "instances", None),
}


def _check_columns(
    columns: Dict[str, np.ndarray],
    spec: Dict[str, Tuple[str, str, Optional[str]]],
    size: Dict[str, int],
) -> None:
    """Validate columns that came from outside the process against a
    :data:`COLUMNS`-style ``spec`` and the group sizes: ``ValueError``
    naming the first column that is absent, not a 1-d array of its
    dtype kind, of the wrong length, not a monotone offset vector from
    0 to its target's size, or indexing outside its target group."""
    for name, (kind, group, target) in spec.items():
        column, is_ptr = columns.get(name), name.endswith("_ptr")
        if (
            not isinstance(column, np.ndarray)
            or column.ndim != 1
            or column.dtype.kind != kind
        ):
            raise ValueError(f"column {name!r} is missing or not a 1-d {kind!r} array")
        if len(column) != size[group] + is_ptr:
            raise ValueError(
                f"column {name!r} has {len(column)} rows for {size[group]} {group}"
            )
        if target is None or not len(column):
            continue
        bound = size[target]
        if is_ptr:
            if column[0] != 0 or column[-1] != bound or (np.diff(column) < 0).any():
                raise ValueError(
                    f"column {name!r} is not a monotone offset vector "
                    f"from 0 to {bound} {target}"
                )
        else:
            low = -1 if name in ("pin_inst", "pin_port", "pin_slot") else 0
            if column.min() < low or column.max() >= bound:
                raise ValueError(
                    f"column {name!r} indexes outside [{low}, {bound}) {target}"
                )


def design_snapshot(netlist: Union[Design, NetlistArrays]) -> Dict[str, Any]:
    """The flat form of a design or a flat netlist (module docstring);
    scalars are read live from an object view when there is one."""
    arrays = netlist if isinstance(netlist, NetlistArrays) else netlist.arrays()
    live = arrays.design
    header: Dict[str, Any] = {name: arrays.current_scalar(name) for name in _SCALARS}
    header["floorplan"] = list(astuple(live.floorplan) if live else arrays.floorplan)
    header.update((name, list(getattr(arrays, name))) for name in _LISTS)
    columns = {name: getattr(arrays, name).copy() for name in COLUMNS}
    columns["net_weight"] = arrays.current_net_weights()
    columns["port_x"], columns["port_y"] = arrays.current_port_xy()
    columns["inst_x"], columns["inst_y"] = arrays.current_positions()
    columns["inst_fixed"] = arrays.current_fixed()
    return {"form": FORM, "header": header, "columns": columns}


def netlist_from_snapshot(payload: Dict[str, Any]) -> NetlistArrays:
    """Decode a snapshot's columns, with no object view; ``ValueError``
    naming the offending field when the payload is not a well-formed
    one (the placement columns included, though only a design reads them)."""
    if not isinstance(payload, dict) or payload.get("form") != FORM:
        raise ValueError(f"not a {FORM} netlist snapshot")
    header, columns = payload.get("header"), payload.get("columns")
    if not isinstance(header, dict) or not isinstance(columns, dict):
        raise ValueError("snapshot lacks its 'header' / 'columns' mapping")
    size = {"directions": 3}
    for name, group in _LISTS.items():
        count = len(header[name]) if isinstance(header.get(name), list) else -1
        if count != size.setdefault(group, count) or count < 0:
            raise ValueError(f"snapshot header {name!r} is missing or mis-sized")
    if not set(_SCALARS) <= set(header) or len(header["floorplan"]) != 5:
        raise ValueError(f"snapshot header lacks {_SCALARS} or a 5-value floorplan")
    for name in ("clock_period", "input_activity"):
        value = header[name]
        unconstrained = name == "clock_period" and value is None
        if not (isinstance(value, (int, float)) or unconstrained):
            raise ValueError(f"snapshot header {name!r} is not a number")
    for group, name in _SIZED_BY.items():
        size[group] = np.size(columns.get(name, ()))
    _check_columns(columns, {**COLUMNS, **_PLACEMENT}, size)
    is_port = columns["pin_inst"] < 0
    if (is_port == (columns["pin_port"] < 0)).any():
        raise ValueError("snapshot column 'pin_port' disagrees with 'pin_inst'")
    if (is_port != (columns["pin_slot"] < 0)).any():
        raise ValueError("snapshot column 'pin_slot' disagrees with 'pin_inst'")
    fields = {name: header[name] for name in (*_SCALARS, *_LISTS)}
    fields["floorplan"] = tuple(header["floorplan"])
    fields.update((name, columns[name]) for name in COLUMNS)
    return NetlistArrays(**fields)


def design_from_snapshot(payload: Dict[str, Any]) -> Design:
    """Rebuild a design from its flat form: :func:`netlist_from_snapshot`
    (and its ``ValueError``), then the object view, placed."""
    arrays = netlist_from_snapshot(payload)
    x, y, fixed = (payload["columns"][name] for name in _PLACEMENT)
    return arrays.to_design((x, y), fixed)
