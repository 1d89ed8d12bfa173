"""Flat array representation of a placement problem.

The placer works on dense arrays rather than the object model: vertex
``i < netlist.num_instances`` is instance ``i``; ports are appended as
fixed vertices.  Nets are flattened into ``pin_vertex`` /
``net_offsets`` CSR-style arrays, which makes HPWL and the B2B model
vectorizable.  It is built from a flat netlist (``design.arrays()``
or a V-P&R sub's columns) and a floorplan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from repro.netlist.arrays import NetlistArrays
from repro.netlist.design import Floorplan
from repro.place.hpwl import hpwl_arrays


@dataclass(frozen=True)
class CoreBoxes:
    """The core boxes of K stacked placements, as ``(K, 1)`` columns.

    Reads like a :class:`Floorplan` (``core_llx`` … ``core_height``),
    so expressions written against one floorplan's scalars broadcast
    over ``(K, n)`` coordinates unchanged.  Every value is taken from
    the floorplan's own property, not recomputed.
    """

    core_llx: np.ndarray
    core_lly: np.ndarray
    core_urx: np.ndarray
    core_ury: np.ndarray
    core_width: np.ndarray
    core_height: np.ndarray

    @classmethod
    def of(cls, floorplans: Sequence[Floorplan]) -> "CoreBoxes":
        return cls(
            *(
                np.array([[getattr(fp, f.name)] for fp in floorplans], dtype=float)
                for f in fields(cls)
            )
        )

    def __len__(self) -> int:
        return len(self.core_llx)

    def take(self, rows: np.ndarray) -> "CoreBoxes":
        """The boxes of the selected systems (index or mask)."""
        return CoreBoxes(*(getattr(self, f.name)[rows] for f in fields(self)))


class PlacementProblem:
    """Array-form snapshot of a flat netlist for global placement.

    Attributes:
        netlist: Source netlist; :meth:`commit` writes back to its
            object view.
        floorplan: The core of an ordinary (unstacked) problem.
        num_movable_instances: Instances come first in vertex order.
        x, y: Working coordinates (mutated by the placer), ``(n,)`` —
            or ``(K, n)`` after :meth:`stack_dies`, one row per virtual
            die of the same netlist.
        cores: The K core boxes of a stacked problem (None otherwise:
            the core is ``floorplan``'s).
        areas: Vertex areas (ports get area 0).
        fixed: Boolean mask of vertices the placer must not move.
        pin_vertex, net_offsets: CSR-style net membership.
        net_weights: Per-net placement weights.
        net_indices: Original net index per problem net.
    """

    def __init__(
        self, netlist: NetlistArrays, floorplan: Floorplan, include_clock: bool = False
    ) -> None:
        self.netlist = netlist
        self.floorplan = floorplan
        n_inst = netlist.num_instances
        self.x, self.y = netlist.vertex_positions()
        self.areas = np.zeros(len(self.x))
        self.areas[:n_inst] = netlist.current_inst_areas()
        self.fixed = np.ones(len(self.x), dtype=bool)
        self.fixed[:n_inst] = netlist.current_fixed()
        pin_vertex, offsets, sel_nets = netlist.placement_csr(include_clock)
        self.pin_vertex = pin_vertex
        self.net_offsets = offsets
        self.net_weights = netlist.current_net_weights()[sel_nets]
        self.net_indices = sel_nets
        self.num_movable_instances = n_inst
        self.cores: Optional[CoreBoxes] = None

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Total vertices (instances + ports)."""
        return self.x.shape[-1]

    @property
    def num_nets(self) -> int:
        """Number of placeable nets."""
        return len(self.net_weights)

    @property
    def movable(self) -> np.ndarray:
        """Boolean mask of movable vertices."""
        return ~self.fixed

    def stack_dies(
        self, floorplans: Sequence[Floorplan], port_x: np.ndarray, port_y: np.ndarray
    ) -> None:
        """Give the problem a leading axis: K virtual dies of one netlist.

        Lets one problem instance serve every V-P&R shape candidate of
        a cluster at once (pin/offset arrays, areas and masks are
        shape-independent; only the core box and the port ring differ
        between candidates).  ``port_x`` / ``port_y`` are ``(K, ports)``
        in sorted port-name order, i.e. port-vertex order.
        """
        n_inst = self.num_movable_instances
        count = len(floorplans)
        self.cores = CoreBoxes.of(floorplans)
        for name, ring in (("x", port_x), ("y", port_y)):
            stacked = np.empty((count, self.num_vertices))
            stacked[:, :n_inst] = np.atleast_2d(getattr(self, name))[0, :n_inst]
            stacked[:, n_inst:] = ring
            setattr(self, name, stacked)

    def core_boxes(self) -> CoreBoxes:
        """One core box per system (``floorplan``'s, when not stacked)."""
        if self.cores is not None:
            return self.cores
        return CoreBoxes.of([self.floorplan])

    def hpwl(self, weighted: bool = False):
        """HPWL of the working coordinates (microns); one value per
        system for a stacked problem."""
        return hpwl_arrays(
            self.pin_vertex,
            self.net_offsets,
            self.x,
            self.y,
            self.net_weights if weighted else None,
        )

    def set_positions(
        self, x: Sequence[float], y: Sequence[float], only_movable: bool = True
    ) -> None:
        """Overwrite working coordinates (fixed vertices kept by default)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if only_movable:
            mask = self.movable
            self.x[mask] = x[mask]
            self.y[mask] = y[mask]
        else:
            self.x[:] = x
            self.y[:] = y

    def commit(self) -> None:
        """Write working coordinates back to the instances of the
        netlist's object view that are not ``fixed`` here (an ordinary
        problem's; a stacked one has K candidates for them).  Columns
        with no object view (a V-P&R sub) keep them in ``x`` / ``y``."""
        if self.netlist.design is None:
            return
        moved = np.flatnonzero(~self.fixed[: self.num_movable_instances]).tolist()
        instances = self.netlist.design.instances
        for i, x, y in zip(moved, self.x[moved].tolist(), self.y[moved].tolist()):
            instances[i].x, instances[i].y = x, y

    def clip_to_core(self) -> None:
        """Clamp movable vertices into the core box (each system into
        its own, for a stacked problem)."""
        fp = self.cores if self.cores is not None else self.floorplan
        mask = self.movable
        self.x[..., mask] = np.clip(self.x[..., mask], fp.core_llx, fp.core_urx)
        self.y[..., mask] = np.clip(self.y[..., mask], fp.core_lly, fp.core_ury)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlacementProblem(V={self.num_vertices}, nets={self.num_nets}, "
            f"movable={int(self.movable.sum())})"
        )
