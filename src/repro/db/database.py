"""The OpenDB-substitute facade.

The paper's Algorithm 1 begins by reading the netlist files through
OpenDB, extracting the logical hierarchy and building the hypergraph
that clustering consumes.  :class:`DesignDatabase` provides exactly
those queries over our in-memory :class:`~repro.netlist.design.Design`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.netlist.design import Design
from repro.netlist.def_format import apply_def, parse_def
from repro.netlist.hierarchy import HierarchyTree
from repro.netlist.hypergraph import Hypergraph
from repro.netlist.liberty import parse_liberty
from repro.netlist.sdc import apply_sdc, parse_sdc
from repro.netlist.verilog import parse_verilog


class DesignDatabase:
    """Bundles a design with its derived structural views.

    Both views are built lazily and cached against
    :meth:`Design.structure_key`, so any mutation made through the
    construction or ECO APIs (``add_instance`` / ``connect`` /
    ``reconnect_pin`` / ``remove_instance`` / …) transparently rebuilds
    them on next access — the memoised ``Hypergraph.incidence`` can
    never serve pre-edit connectivity.  :meth:`invalidate` remains for
    out-of-API mutations that also bypass
    :meth:`Design.bump_structure_version`.
    """

    def __init__(self, design: Design) -> None:
        self.design = design
        self._hypergraph: Optional[Hypergraph] = None
        self._hypergraph_key: Optional[tuple] = None
        self._hierarchy: Optional[HierarchyTree] = None
        self._hierarchy_key: Optional[tuple] = None

    @property
    def hypergraph(self) -> Hypergraph:
        """The clustering hypergraph (clock nets excluded)."""
        key = self.design.structure_key()
        if self._hypergraph is None or self._hypergraph_key != key:
            self._hypergraph = Hypergraph.from_netlist(self.design.arrays())
            self._hypergraph_key = key
        return self._hypergraph

    @property
    def hierarchy(self) -> HierarchyTree:
        """The logical hierarchy tree ``T(V', E')``."""
        key = self.design.structure_key()
        if self._hierarchy is None or self._hierarchy_key != key:
            self._hierarchy = HierarchyTree(self.design)
            self._hierarchy_key = key
        return self._hierarchy

    def invalidate(self) -> None:
        """Drop cached views after the design is modified."""
        self._hypergraph = None
        self._hypergraph_key = None
        self._hierarchy = None
        self._hierarchy_key = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DesignDatabase({self.design!r})"


def load_design_files(
    verilog_path: Path,
    liberty_path: Path,
    def_path: Optional[Path] = None,
    sdc_path: Optional[Path] = None,
) -> DesignDatabase:
    """Load a design from the paper's input file set (.v, .lib, .def, .sdc).

    The .lef geometry is folded into the Liberty-lite cells (area and
    height attributes), so a separate .lef is not needed for standard
    cells; cluster .lef files are produced later by the V-P&R stage.
    """
    masters = parse_liberty(Path(liberty_path).read_text())
    design = parse_verilog(Path(verilog_path).read_text(), masters)
    if def_path is not None:
        apply_def(design, parse_def(Path(def_path).read_text()))
    if sdc_path is not None:
        sdc = parse_sdc(Path(sdc_path).read_text())
        apply_sdc(design, sdc)
        if sdc.clock_port and sdc.clock_port in design.ports:
            clock_net = design.net(sdc.clock_port)
            clock_net.is_clock = True
    return DesignDatabase(design)
