"""A cluster's sub-netlist and its virtual dies (Figure 3, left).

One job: turn a cluster into what a V-P&R candidate is placed and
routed on.  :func:`extract_subnetlist` induces the sub-netlist from
the source's flat form with the paper's port rule
(:meth:`~repro.netlist.arrays.NetlistArrays.induce`; nets and port
numbers in (member, net index) order, so a sub's digest ignores edit
history).  A sub is those columns and nothing else: no object view is
built for it, and nothing writes to it.  :func:`_virtual_die` sizes a
candidate's die and rings it with the IO ports, and
:class:`_SubContext` keeps what the candidates of one sub share.
:mod:`repro.core.vpr` evaluates and selects over them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cache import netlist_digest
from repro.core.shapes import ShapeCandidate
from repro.netlist.arrays import NetlistArrays
from repro.netlist.design import Design, Floorplan
from repro.place.hpwl import hpwl_arrays
from repro.place.problem import PlacementProblem

#: GCell count of the virtual-die routing grid and margin around the
#: virtual core (microns).  Constants of the evaluation, hashed into
#: every cache key under these names (``VPRConfig.EVALUATION_CONSTANTS``).
ROUTE_TARGET_CELLS = 144
DIE_MARGIN = 1.0


def extract_subnetlist(
    source: Design, member_indices: Sequence[int]
) -> NetlistArrays:
    """Induce the sub-netlist over a cluster's instances.

    Inter-cluster nets become virtual IO ports (Figure 3's port
    creation rule, :meth:`NetlistArrays.induce`), in canonical order:
    the sub depends on the netlist's content, not on its edit history.
    """
    return source.arrays().induce(member_indices)


def _virtual_die(
    num_ports: int, cell_area: float, candidate: ShapeCandidate
) -> Tuple[Floorplan, np.ndarray, np.ndarray]:
    """The virtual die of a shape: its floorplan, and the IO ports'
    ``(x, y)`` spread evenly around the periphery in sorted port-name
    order (the OpenROAD pin-placer substitute)."""
    width, height = candidate.dimensions(max(cell_area, 1e-6))
    fp = Floorplan(
        die_width=width + 2 * DIE_MARGIN,
        die_height=height + 2 * DIE_MARGIN,
        core_margin=DIE_MARGIN,
        target_utilization=candidate.utilization,
    )
    perimeter = 2 * (fp.die_width + fp.die_height)
    t = (np.arange(num_ports) + 0.5) / max(num_ports, 1) * perimeter
    bottom = t < fp.die_width
    right = t < fp.die_width + fp.die_height
    top = t < 2 * fp.die_width + fp.die_height
    x = np.select(
        [bottom, right, top],
        [t, fp.die_width, t - fp.die_width - fp.die_height],
        0.0,
    )
    y = np.select(
        [bottom, right, top],
        [0.0, t - fp.die_width, fp.die_height],
        t - 2 * fp.die_width - fp.die_height,
    )
    return fp, x, y


class _SubContext:
    """Candidate-independent artefacts of one sub-netlist.

    Twenty candidates share the placement problem (net→pin CSR, masks,
    areas, weights) and the content digest; only the core box and the
    port ring change between candidates.  Under B2B the Laplacian
    *pattern* is not among the shared things — its bound pins move with
    every linearisation — so there is no symbolic matrix to reuse.  A
    sub is never edited in place (an edit of the source induces a new
    one), so a context lives as long as its sub.
    """

    __slots__ = ("sub", "problem", "_digest")

    def __init__(self, sub: NetlistArrays) -> None:
        self.sub = sub
        self.problem: Optional[PlacementProblem] = None
        self._digest: Optional[str] = None

    def placement_problem(
        self, dies: Sequence[Tuple[Floorplan, np.ndarray, np.ndarray]]
    ) -> PlacementProblem:
        """The shared placement problem, stacked over virtual dies."""
        if self.problem is None:
            self.problem = PlacementProblem(self.sub, Floorplan(*self.sub.floorplan))
        floorplans, port_x, port_y = zip(*dies)
        self.problem.stack_dies(floorplans, np.array(port_x), np.array(port_y))
        return self.problem

    def digest(self) -> str:
        """Content digest of the sub-netlist (the netlist part of its
        items' cache addresses), hashed on first use."""
        if self._digest is None:
            with obs.stage("vpr.cache_key"):
                self._digest = netlist_digest(self.sub)
        return self._digest

    def mean_hpwl(self, x: np.ndarray, y: np.ndarray) -> float:
        """Average net HPWL over one system's final coordinates: every
        net of two or more pins, duplicate same-instance pins kept (they
        cannot change a span) — :func:`repro.place.hpwl.net_hpwl`
        semantics, off the sub's columns."""
        pin_vertex, offsets, nets = self.sub.pin_vertex_csr(include_clock=True)
        if not len(nets):
            return 0.0
        return hpwl_arrays(pin_vertex, offsets, x, y) / len(nets)
