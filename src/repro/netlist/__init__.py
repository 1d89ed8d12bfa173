"""Netlist database substrate (OpenDB substitute).

Provides the in-memory design model (:class:`Design`, :class:`Instance`,
:class:`Net`, :class:`Port`, :class:`MasterCell`), the immutable
:class:`Hypergraph` view used by all clustering algorithms, the logical
:class:`HierarchyTree`, and lite readers/writers for the file formats the
paper's flow consumes (.v, .lib, .lef, .def, .sdc).
"""

from repro.netlist.arrays import NetlistArrays
from repro.netlist.design import (
    Design,
    Instance,
    MasterCell,
    Net,
    PinDirection,
    PinRef,
    Port,
)
from repro.netlist.hierarchy import HierarchyTree
from repro.netlist.hypergraph import Hypergraph
from repro.netlist.liberty import parse_liberty, write_liberty
from repro.netlist.lef import ClusterLef, write_lef
from repro.netlist.def_format import parse_def, write_def
from repro.netlist.sdc import SdcConstraints, parse_sdc, write_sdc
from repro.netlist.snapshot import design_from_snapshot, design_snapshot
from repro.netlist.verilog import parse_verilog, write_verilog

__all__ = [
    "Design",
    "Instance",
    "MasterCell",
    "Net",
    "PinDirection",
    "PinRef",
    "Port",
    "HierarchyTree",
    "Hypergraph",
    "NetlistArrays",
    "parse_liberty",
    "write_liberty",
    "ClusterLef",
    "write_lef",
    "parse_def",
    "write_def",
    "SdcConstraints",
    "parse_sdc",
    "write_sdc",
    "parse_verilog",
    "write_verilog",
    "design_snapshot",
    "design_from_snapshot",
]
