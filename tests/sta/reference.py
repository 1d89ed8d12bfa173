"""The per-arc / per-object STA bodies, kept as the tests' oracle.

This is the Python the flat engine in ``repro.sta`` replaced (PRs 4
and 6), moved here when the ``use_arrays`` / ``vectorize`` flags that
selected it were deleted: the object-graph timing-graph walk, the deque
Kahn levelization, the per-arc arrival / required propagation, the
per-arc hold tail and the per-arc activity propagation.  The
propagation bodies are verbatim; the graph builder is the same walk
made standalone (it returns plain lists instead of filling a
``TimingGraph``).

Since the STA package reads only the flat form, more object walks
live here: the wire models' per-net geometry (``net_wirelength`` /
``sink_distance`` / ``net_load`` / ``wire_delay``, once methods of
``WireDelayModel``), ``FlatTiming``'s per-net / per-node table loop
(:func:`flat_tables_reference`), ``analyze_power``'s body
(:func:`analyze_power_reference`), and :class:`GraphView` — the
per-node ``(instance, pin)`` map and the tuple adjacency
(``arcs`` / ``preds``) that ``TimingGraph`` once offered as inspection
views, rebuilt from its flat arrays and the design's objects.

Everything reaches the program through public surfaces only — the
graph's node and arc arrays, ``topo_order`` and the model parameters —
and must agree with ``TimingGraph``, ``TimingAnalyzer``,
``analyze_hold``, ``propagate_activity``, ``FlatTiming`` and
``analyze_power`` bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.design import Design, Instance, Net, PinDirection, PinRef
from repro.sta.activity import ACTIVITY_FLOOR, REGISTER_ACTIVITY, TRANSFER_FACTORS
from repro.sta.analysis import UNCONSTRAINED_PERIOD, TimingReport
from repro.sta.delay import (
    RC_NS,
    FanoutWireModel,
    PlacementWireModel,
    RoutedWireModel,
    WireDelayModel,
    effective_cell_delay,
)
from repro.sta.graph import TimingGraph
from repro.sta.hold import HoldReport
from repro.sta.power import _FF_V2_GHZ_TO_MW, VDD, PowerReport


# ----------------------------------------------------------------------
# Wire-model geometry, one net at a time
# ----------------------------------------------------------------------
def _pin_location(design: Design, ref: PinRef) -> tuple:
    """Location of a pin reference (instance centre or port location)."""
    if ref.instance is not None:
        return ref.instance.x, ref.instance.y
    port = design.ports[ref.pin_name]
    return port.x, port.y


def _placement_hpwl(design: Design, net: Net) -> float:
    xs = []
    ys = []
    for ref in net.pins():
        x, y = _pin_location(design, ref)
        xs.append(x)
        ys.append(y)
    if not xs:
        return 0.0
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _placement_distance(design: Design, net: Net, sink: PinRef) -> float:
    if net.driver is None:
        return 0.0
    xd, yd = _pin_location(design, net.driver)
    xs, ys = _pin_location(design, sink)
    return abs(xd - xs) + abs(yd - ys)


def net_wirelength(model: WireDelayModel, design: Design, net: Net) -> float:
    """Estimated total wire length of the net (microns)."""
    if type(model) is FanoutWireModel:
        return model.wl_per_fanout * max(1, net.fanout)
    if type(model) is RoutedWireModel:
        routed = model.routed_lengths.get(net.index)
        if routed is not None:
            return routed
    return _placement_hpwl(design, net)


def sink_distance(
    model: WireDelayModel, design: Design, net: Net, sink: PinRef
) -> float:
    """Estimated driver-to-sink distance (microns)."""
    if type(model) is FanoutWireModel:
        return model.wl_per_fanout
    base = _placement_distance(design, net, sink)
    if type(model) is not RoutedWireModel:
        return base
    hpwl = _placement_hpwl(design, net)
    routed = model.routed_lengths.get(net.index)
    if routed is None or hpwl <= 0:
        return base
    detour = max(1.0, routed / hpwl)
    return base * detour


def net_load(model: WireDelayModel, design: Design, net: Net) -> float:
    """Total load seen by the driver: sink pin caps + wire cap (fF)."""
    pin_cap = sum(sink.capacitance(design) for sink in net.sinks)
    return pin_cap + model.c_per_um * net_wirelength(model, design, net)


def wire_delay(model: WireDelayModel, design: Design, net: Net, sink: PinRef) -> float:
    """Elmore-style wire delay from driver to ``sink`` (ns):
    ``R_wire * (C_wire / 2 + C_sink)`` over the driver-to-sink distance."""
    dist = sink_distance(model, design, net, sink)
    r_wire = model.r_per_um * dist
    c_wire = model.c_per_um * dist
    c_sink = sink.capacitance(design)
    return RC_NS * r_wire * (0.5 * c_wire + c_sink)


# ----------------------------------------------------------------------
# Timing-graph construction (object walk) and levelization (deque Kahn)
# ----------------------------------------------------------------------
@dataclass
class GraphReference:
    """What the object-graph walk builds, as plain lists.

    Attributes:
        node_names: ``inst.pin`` / port name per node id.
        arc_src, arc_dst: Arcs in creation order — wire arcs net-major,
            then cell arcs output-major.
        arc_payload: Net index of a wire arc, driving instance index of
            a cell arc.
        num_wire_arcs: Length of the wire-arc prefix.
        startpoints, endpoints: Node ids, in the walk's order.
        topo_order: FIFO Kahn order.
        levels: Longest-path depth per node.
    """

    node_names: List[str]
    arc_src: List[int]
    arc_dst: List[int]
    arc_payload: List[int]
    num_wire_arcs: int
    startpoints: List[int]
    endpoints: List[int]
    topo_order: List[int]
    levels: List[int]


def build_graph_reference(design: Design) -> GraphReference:
    """Walk the object graph pin by pin, minting node ids on first visit."""
    node_of: Dict[Tuple[Optional[int], str], int] = {}
    node_info: List[Tuple[Optional[Instance], str]] = []

    def node(inst: Optional[Instance], pin_name: str) -> int:
        key = (inst.index if inst is not None else None, pin_name)
        node_id = node_of.get(key)
        if node_id is None:
            node_id = len(node_info)
            node_of[key] = node_id
            node_info.append((inst, pin_name))
        return node_id

    # Create nodes for every port so they exist even when floating.
    for name in design.ports:
        node(None, name)

    # Wire arcs.
    w_src: List[int] = []
    w_dst: List[int] = []
    w_net: List[int] = []
    for net in design.nets:
        driver = net.driver
        if driver is None or net.is_clock:
            continue
        u = node(driver.instance, driver.pin_name)
        for sink in net.sinks:
            w_src.append(u)
            w_dst.append(node(sink.instance, sink.pin_name))
            w_net.append(net.index)

    # Cell arcs.
    c_src: List[int] = []
    c_dst: List[int] = []
    c_inst: List[int] = []
    startpoints: List[int] = []
    endpoints: List[int] = []
    for inst in design.instances:
        master = inst.master
        out_names = [p.name for p in master.output_pins()]
        in_names = [p.name for p in master.input_pins()]
        pin_nets = inst.pin_nets
        outputs = [p for p in out_names if pin_nets.get(p) is not None]
        if master.is_sequential:
            # Q pins launch paths (clock arrives at t=0, so arrival
            # at Q is clk_to_q, applied by the analyzer).  D-type
            # inputs are endpoints even when Q is unused.
            for out in outputs:
                startpoints.append(node(inst, out))
            for d in in_names:
                if pin_nets.get(d) is not None:
                    endpoints.append(node(inst, d))
        elif not outputs:
            continue
        else:
            inputs = [p for p in in_names if pin_nets.get(p) is not None]
            for out in outputs:
                out_node = node(inst, out)
                for inp in inputs:
                    c_src.append(node(inst, inp))
                    c_dst.append(out_node)
                    c_inst.append(inst.index)

    # Ports: input ports with a driven net are startpoints; output
    # ports are endpoints.
    for name, port in design.ports.items():
        node_id = node_of[(None, name)]
        if port.direction is PinDirection.INPUT:
            if name != design.clock_port:
                startpoints.append(node_id)
        else:
            endpoints.append(node_id)

    arc_src = w_src + c_src
    arc_dst = w_dst + c_dst
    topo_order, levels = levelize_reference(len(node_info), arc_src, arc_dst)
    return GraphReference(
        node_names=[
            pin if inst is None else f"{inst.name}.{pin}" for inst, pin in node_info
        ],
        arc_src=arc_src,
        arc_dst=arc_dst,
        arc_payload=w_net + c_inst,
        num_wire_arcs=len(w_src),
        startpoints=startpoints,
        endpoints=endpoints,
        topo_order=topo_order,
        levels=levels,
    )


def levelize_reference(
    n: int, arc_src: List[int], arc_dst: List[int]
) -> Tuple[List[int], List[int]]:
    """Deque-based Kahn order plus longest-path depth per node."""
    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in zip(arc_src, arc_dst):
        succs[u].append(v)
        indeg[v] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    order: List[int] = []
    levels = [0] * n
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in succs[u]:
            levels[v] = max(levels[v], levels[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise ValueError("combinational loop detected")
    return order, levels


# ----------------------------------------------------------------------
# A TimingGraph read through the design's objects
# ----------------------------------------------------------------------
#: Arc kinds of :attr:`GraphView.arcs` / :attr:`GraphView.preds`.
CELL = "cell"
WIRE = "wire"

Adjacency = List[List[Tuple[int, str, object]]]


class GraphView:
    """The object views ``TimingGraph`` no longer carries, rebuilt from
    its flat arrays and the design it was built from.

    Attributes:
        graph: The viewed :class:`TimingGraph`.
        design: Its design (``graph.arrays`` is ``design.arrays()``).
        arcs: Forward adjacency: ``arcs[u]`` lists ``(v, kind, payload)``
            with kind :data:`CELL` (payload: the driving ``Instance``)
            or :data:`WIRE` (payload: the ``Net``), wire arcs net-major
            in net-index order, then cell arcs output-major in instance
            order with inputs in pin order — the creation order.
        preds: Reverse adjacency mirroring ``arcs``.
    """

    def __init__(self, graph: TimingGraph, design: Design) -> None:
        self.graph = graph
        self.design = design
        pool = graph.arrays.name_pool
        instances = design.instances
        self._info: List[Tuple[Optional[Instance], str]] = []
        self._node_of: Dict[Tuple[Optional[int], str], int] = {}
        for nid, (owner, name_id) in enumerate(
            zip(graph.node_owner.tolist(), graph.node_pin_name.tolist())
        ):
            inst = instances[owner] if owner >= 0 else None
            self._info.append((inst, pool[name_id]))
            self._node_of[(owner if owner >= 0 else None, pool[name_id])] = nid
        n = graph.num_nodes
        arcs: Adjacency = [[] for _ in range(n)]
        preds: Adjacency = [[] for _ in range(n)]
        dsts = graph._w_dst.tolist()
        pos = 0
        for u, ni, cnt in zip(
            graph._w_src.tolist(), graph._w_net.tolist(), graph._w_cnt.tolist()
        ):
            net = design.nets[ni]
            for v in dsts[pos : pos + cnt]:
                arcs[u].append((v, WIRE, net))
                preds[v].append((u, WIRE, net))
            pos += cnt
        srcs = graph._c_src.tolist()
        pos = 0
        for out_node, inst_i, nin in zip(
            graph._c_out_node.tolist(),
            graph._c_out_inst.tolist(),
            graph._c_nin.tolist(),
        ):
            inst = instances[inst_i]
            for u in srcs[pos : pos + nin]:
                arcs[u].append((out_node, CELL, inst))
                preds[out_node].append((u, CELL, inst))
            pos += nin
        self.arcs = arcs
        self.preds = preds

    def info(self, node_id: int) -> Tuple[Optional[Instance], str]:
        """(instance, pin name) of a node; instance None for ports."""
        return self._info[node_id]

    def node(self, inst: Optional[Instance], pin_name: str) -> int:
        """Node id of an instance pin / port (KeyError if it has none)."""
        return self._node_of[(inst.index if inst is not None else None, pin_name)]

    def node_for_ref(self, ref: PinRef) -> Optional[int]:
        """Node id of a :class:`PinRef`, None when the pin has no node."""
        key = (ref.instance.index if ref.instance is not None else None, ref.pin_name)
        return self._node_of.get(key)


# ----------------------------------------------------------------------
# Setup propagation (per-arc Python loops)
# ----------------------------------------------------------------------
class ReferenceAnalyzer:
    """Per-arc arrival / required propagation over the design's
    ``TimingGraph``, read through a :class:`GraphView`.

    Quacks like :class:`~repro.sta.analysis.TimingAnalyzer` as far as
    ``find_path_ends`` needs (``graph``, ``report``, ``update()``).
    Every update is a full one at the current geometry.
    """

    def __init__(
        self,
        design: Design,
        wire_model: WireDelayModel,
        clock_uncertainty: float = 0.0,
    ) -> None:
        self.graph = TimingGraph(design.arrays())
        self.view = GraphView(self.graph, design)
        self.wire_model = wire_model
        self.design = design
        self.clock_uncertainty = clock_uncertainty
        self.report: Optional[TimingReport] = None
        self._net_loads: Dict[int, float] = {}

    def _clock_period(self) -> float:
        period = self.design.clock_period
        return period if period is not None else UNCONSTRAINED_PERIOD

    def arc_delay(self, u: int, v: int, kind: str, payload: object) -> float:
        """Delay of one timing arc (ns)."""
        if kind == WIRE:
            net: Net = payload  # type: ignore[assignment]
            inst, pin = self.view.info(v)
            sink = PinRef(inst, pin)
            return wire_delay(self.wire_model, self.design, net, sink)
        # Cell arc: linear delay model on the driving output pin,
        # with virtual buffering of large loads.
        inst: Instance = payload  # type: ignore[no-redef]
        _out_inst, out_pin = self.view.info(v)
        net = inst.net_on(out_pin)
        if net is not None:
            load = self._net_loads.get(net.index)
            if load is None:
                load = net_load(self.wire_model, self.design, net)
                self._net_loads[net.index] = load
        else:
            load = 0.0
        master = inst.master
        return effective_cell_delay(
            master.intrinsic_delay, master.drive_resistance, load
        )

    def _startpoint_arrival(self, node: int) -> float:
        """Launch time at a startpoint."""
        inst, pin = self.view.info(node)
        if inst is None:
            return 0.0  # input port (no explicit input delay by default)
        return inst.master.clk_to_q  # sequential Q launch

    def _endpoint_required(self, node: int, period: float) -> float:
        """Capture requirement at an endpoint."""
        inst, pin = self.view.info(node)
        if inst is None:
            return period - self.clock_uncertainty  # output port
        # Sequential D-type input.
        return period - inst.master.setup_time - self.clock_uncertainty

    def update(self) -> TimingReport:
        graph = self.graph
        n = graph.num_nodes
        period = self._clock_period()
        # Net loads depend only on the current geometry: cache them for
        # the duration of this update (cleared on every update so the
        # analyzer stays safe to re-run after placement moves).
        self._net_loads = {}

        arrival = [-math.inf] * n
        worst_pred = [-1] * n
        for s in graph.startpoints:
            arrival[s] = max(arrival[s], self._startpoint_arrival(s))

        for u in graph.topo_order:
            if arrival[u] == -math.inf:
                continue
            au = arrival[u]
            for v, kind, payload in self.view.arcs[u]:
                candidate = au + self.arc_delay(u, v, kind, payload)
                if candidate > arrival[v]:
                    arrival[v] = candidate
                    worst_pred[v] = u

        required = [math.inf] * n
        endpoint_slacks: Dict[int, float] = {}
        for e in graph.endpoints:
            required[e] = min(required[e], self._endpoint_required(e, period))

        for v in reversed(graph.topo_order):
            rv = required[v]
            if rv == math.inf:
                continue
            for u, kind, payload in self.view.preds[v]:
                candidate = rv - self.arc_delay(u, v, kind, payload)
                if candidate < required[u]:
                    required[u] = candidate

        wns = math.inf
        tns = 0.0
        for e in graph.endpoints:
            if arrival[e] == -math.inf:
                continue  # unreachable endpoint: unconstrained
            slack = required[e] - arrival[e]
            endpoint_slacks[e] = slack
            wns = min(wns, slack)
            if slack < 0:
                tns += slack
        if wns == math.inf:
            wns = period  # no constrained endpoints at all

        self.report = TimingReport(
            wns=wns,
            tns=tns,
            endpoint_slacks=endpoint_slacks,
            arrival=arrival,
            required=required,
            worst_pred=worst_pred,
        )
        return self.report


# ----------------------------------------------------------------------
# Hold (per-arc min-propagation)
# ----------------------------------------------------------------------
def analyze_hold_reference(
    analyzer: ReferenceAnalyzer, input_min_delay: float = 0.05
) -> HoldReport:
    """Min-arrival propagation, one arc at a time, at the current geometry."""
    graph = analyzer.graph
    view = analyzer.view
    n = graph.num_nodes
    analyzer._net_loads = {}

    arrival = [math.inf] * n
    for s in graph.startpoints:
        inst, _pin = view.info(s)
        if inst is None:
            launch = input_min_delay
        else:
            launch = inst.master.clk_to_q
        arrival[s] = min(arrival[s], launch)

    for u in graph.topo_order:
        if arrival[u] == math.inf:
            continue
        au = arrival[u]
        for v, kind, payload in view.arcs[u]:
            candidate = au + analyzer.arc_delay(u, v, kind, payload)
            if candidate < arrival[v]:
                arrival[v] = candidate

    wns = math.inf
    tns = 0.0
    endpoint_slacks: Dict[int, float] = {}
    for e in graph.endpoints:
        inst, _pin = view.info(e)
        if inst is None or not inst.master.is_sequential:
            continue
        if arrival[e] == math.inf:
            continue
        requirement = inst.master.hold_time + analyzer.clock_uncertainty
        slack = arrival[e] - requirement
        endpoint_slacks[e] = slack
        wns = min(wns, slack)
        if slack < 0:
            tns += slack
    if wns == math.inf:
        wns = 0.0
    return HoldReport(wns=wns, tns=tns, endpoint_slacks=endpoint_slacks)


# ----------------------------------------------------------------------
# Switching activity (per-arc)
# ----------------------------------------------------------------------
def propagate_activity_reference(design: Design) -> np.ndarray:
    """Per-arc activity propagation from ``design.input_activity``;
    returns the per-net array like the flat one."""
    graph = TimingGraph(design.arrays())
    view = GraphView(graph, design)
    n = graph.num_nodes
    activity = [0.0] * n

    for s in graph.startpoints:
        inst, _pin = view.info(s)
        if inst is None:
            activity[s] = design.input_activity
        else:
            activity[s] = REGISTER_ACTIVITY

    # Mean-input accumulation per combinational output node.
    input_sum = [0.0] * n
    input_cnt = [0] * n
    for u in graph.topo_order:
        a_u = activity[u]
        for v, kind, _payload in view.arcs[u]:
            if kind == WIRE:
                # Wires carry activity unchanged.
                if a_u > activity[v]:
                    activity[v] = a_u
            else:  # cell arc: accumulate for mean at output
                input_sum[v] += a_u
                input_cnt[v] += 1
                inst, _pin = view.info(v)
                factor = TRANSFER_FACTORS.get(inst.master.cell_class, 0.6)
                mean_in = input_sum[v] / input_cnt[v]
                activity[v] = max(ACTIVITY_FLOOR, factor * mean_in)

    net_activity = [0.0] * len(design.nets)
    for net in design.nets:
        if net.is_clock:
            net_activity[net.index] = 1.0
            continue
        if net.driver is None:
            continue
        node = view.node_for_ref(net.driver)
        a = max(ACTIVITY_FLOOR, activity[node] if node is not None else 0.0)
        if math.isnan(a):  # pragma: no cover - defensive
            a = ACTIVITY_FLOOR
        net_activity[net.index] = a
    return np.asarray(net_activity)


# ----------------------------------------------------------------------
# The three built-in wire models, for parametrizing equivalence tests
# ----------------------------------------------------------------------
def scatter(design: Design) -> Design:
    """Give every movable instance a distinct deterministic location in
    the core (generated designs start with all cells at the origin, where
    every placement-based wire length is zero)."""
    fp = design.floorplan
    for inst in design.instances:
        if not inst.fixed:
            inst.x = fp.core_llx + (inst.index * 37 % 101) / 101.0 * fp.core_width
            inst.y = fp.core_lly + (inst.index * 53 % 89) / 89.0 * fp.core_height
    return design


def routed_wire_model(design: Design) -> RoutedWireModel:
    """A routed model with detoured lengths on every other net (the
    rest fall back to placement HPWL, covering both branches)."""
    placed = PlacementWireModel()
    lengths = {
        net.index: 1.25 * net_wirelength(placed, design, net) + 1.0
        for net in design.nets
        if net.index % 2 == 0
    }
    return RoutedWireModel(lengths)


#: Wire-model factories; pytest ids are their ``__name__``.  Build one
#: with :func:`make_wire_model`.
WIRE_MODELS = [PlacementWireModel, FanoutWireModel, routed_wire_model]


def make_wire_model(factory, design: Design) -> WireDelayModel:
    """A model class takes no argument; ``routed_wire_model`` reads the
    design's placement."""
    return factory() if isinstance(factory, type) else factory(design)


# ----------------------------------------------------------------------
# FlatTiming's per-node / per-net tables (object walk)
# ----------------------------------------------------------------------
def flat_tables_reference(graph: TimingGraph, design: Design) -> Dict[str, np.ndarray]:
    """The tables ``FlatTiming`` once filled by walking nets, pins and
    node maps, keyed by the ``FlatTiming`` attribute each must equal."""
    view = GraphView(graph, design)
    ports = design.ports
    instances = design.instances
    n = graph.num_nodes
    info = view.info
    out = {}
    out_inst = graph._c_out_inst.tolist()
    zero_w = [0.0] * len(graph._w_dst)
    nin = graph._c_nin.tolist()
    intrinsic = list(zero_w)
    drive = list(zero_w)
    for i, k in zip(out_inst, nin):
        intrinsic += [instances[i].master.intrinsic_delay] * k
        drive += [instances[i].master.drive_resistance] * k
    out["a_intrinsic"] = intrinsic
    out["a_drive"] = drive

    s_launch, s_isport = [], []
    for s in graph.startpoints:
        inst, _pin = info(s)
        s_launch.append(0.0 if inst is None else inst.master.clk_to_q)
        s_isport.append(inst is None)
    out["s_launch"], out["s_isport"] = s_launch, s_isport
    e_setup, e_isseq, e_hold = [], [], []
    for e in graph.endpoints:
        inst, _pin = info(e)
        e_setup.append(0.0 if inst is None else inst.master.setup_time)
        e_isseq.append(False if inst is None else inst.master.is_sequential)
        e_hold.append(0.0 if inst is None else inst.master.hold_time)
    out["e_setup"], out["e_isseq"], out["e_hold"] = e_setup, e_isseq, e_hold

    num_nets = len(design.nets)
    pincap = [0.0] * num_nets
    fanout = [0] * num_nets
    is_clock = [False] * num_nets
    has_driver = [False] * num_nets
    indptr = [0]
    pin_inst, pin_px, pin_py = [], [], []
    drv_inst = [-1] * num_nets
    drv_px = [0.0] * num_nets
    drv_py = [0.0] * num_nets
    drv_node = [-1] * num_nets
    csink_wire: List[float] = []
    for net in design.nets:
        ni = net.index
        is_clock[ni] = net.is_clock
        fanout[ni] = net.fanout
        caps = [
            ports[s.pin_name].capacitance
            if s.instance is None
            else s.instance.master.pins[s.pin_name].capacitance
            for s in net.sinks
        ]
        pincap[ni] = sum(caps)
        if net.driver is not None and not net.is_clock:
            csink_wire.extend(caps)
        for ref in net.pins():
            if ref.instance is None:
                port = ports[ref.pin_name]
                pin_inst.append(-1)
                pin_px.append(port.x)
                pin_py.append(port.y)
            else:
                pin_inst.append(ref.instance.index)
                pin_px.append(0.0)
                pin_py.append(0.0)
        indptr.append(len(pin_inst))
        ref = net.driver
        if ref is not None:
            has_driver[ni] = True
            node = view.node_for_ref(ref)
            drv_node[ni] = node if node is not None else n
            if ref.instance is None:
                drv_px[ni] = ports[ref.pin_name].x
                drv_py[ni] = ports[ref.pin_name].y
            else:
                drv_inst[ni] = ref.instance.index
    out.update(
        net_pincap=pincap,
        net_fanout=fanout,
        net_is_clock=is_clock,
        net_has_driver=has_driver,
        pin_indptr=indptr,
        pin_inst=pin_inst,
        pin_px=pin_px,
        pin_py=pin_py,
        drv_inst=drv_inst,
        drv_px=drv_px,
        drv_py=drv_py,
        drv_node=drv_node,
    )
    out["a_csink"] = csink_wire + [0.0] * len(graph._c_src)

    factor = [0.6] * n
    for node, i in zip(graph._c_out_node.tolist(), out_inst):
        factor[node] = TRANSFER_FACTORS.get(instances[i].master.cell_class, 0.6)
    out["act_factor"] = factor
    return {k: np.asarray(v) for k, v in out.items()}


# ----------------------------------------------------------------------
# Power (per-net / per-instance walk)
# ----------------------------------------------------------------------
def analyze_power_reference(
    design: Design,
    wire_model: WireDelayModel,
    net_activity: np.ndarray,
    clock_wirelength: float = 0.0,
    clock_buffers: int = 0,
    c_per_um: float = 0.2,
) -> PowerReport:
    """``analyze_power``'s body as it walked the object graph."""
    period = design.clock_period or 1.0
    freq_ghz = 1.0 / period

    switching = 0.0
    for net in design.nets:
        if net.is_clock or net.driver is None:
            continue
        activity = net_activity[net.index]
        cap = net_load(wire_model, design, net)
        switching += 0.5 * activity * cap
    switching *= VDD * VDD * freq_ghz * _FF_V2_GHZ_TO_MW

    internal = 0.0
    leakage = 0.0
    for inst in design.instances:
        master = inst.master
        leakage += master.leakage_power
        out_activity = 0.0
        for pin in master.output_pins():
            net = inst.net_on(pin.name)
            if net is None:
                continue
            out_activity = max(out_activity, net_activity[net.index])
        if master.is_sequential:
            out_activity = max(out_activity, 1.0)
        internal += master.internal_energy * out_activity
    internal *= freq_ghz * _FF_V2_GHZ_TO_MW

    ck_pin_cap = 0.0
    for inst in design.sequential_instances():
        clock_pin = inst.master.clock_pin()
        if clock_pin is not None:
            ck_pin_cap += clock_pin.capacitance
    clock_cap = c_per_um * clock_wirelength + ck_pin_cap
    buffer_energy = 2.0 * clock_buffers
    clock = (
        (0.5 * 1.0 * clock_cap * VDD * VDD + buffer_energy)
        * freq_ghz
        * _FF_V2_GHZ_TO_MW
    )
    return PowerReport(
        switching=switching, internal=internal, leakage=leakage, clock=clock
    )
