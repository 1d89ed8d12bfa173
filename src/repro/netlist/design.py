"""Core netlist data model.

This module is the in-memory design database that every other subsystem
builds on (the role OpenDB plays in the paper's flow).  It models:

* :class:`MasterCell` — a library cell (or cluster soft-macro) with pins,
  geometry, timing and power characteristics.
* :class:`Instance` — a placed occurrence of a master cell, carrying its
  hierarchical name (``top/u_core/u_alu/U123``).
* :class:`Net` — a signal hyperedge with one driver and many sinks.
* :class:`Port` — a top-level IO with a fixed boundary location.
* :class:`Design` — the container tying everything together, plus the
  floorplan bounding box.

Geometry units are microns throughout.  Capacitance is in fF, resistance
in kOhm, time in ns, power in mW unless stated otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


#: Primary-input toggle rate when no SDC sets one (toggles per cycle).
DEFAULT_INPUT_ACTIVITY = 0.1


class PinDirection(enum.Enum):
    """Direction of a cell pin or top-level port."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


class _FrozenSlots:
    """Immutable ``__slots__`` base: frozen-dataclass semantics without
    requiring ``dataclass(slots=True)`` (3.10+) or its broken pickling
    on 3.10 (bpo-45520 — fixed only in 3.11)."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, s) for s in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash((self.__class__, self._astuple()))

    def __getstate__(self) -> tuple:
        return self._astuple()

    def __setstate__(self, state: tuple) -> None:
        for slot, value in zip(self.__slots__, state):
            object.__setattr__(self, slot, value)

    def __reduce__(self):
        return (_rebuild_frozen, (self.__class__, self._astuple()))


def _rebuild_frozen(cls, state):
    """Pickle helper: rebuild a :class:`_FrozenSlots` without __init__."""
    obj = cls.__new__(cls)
    obj.__setstate__(state)
    return obj


class CellPin(_FrozenSlots):
    """A pin on a master cell.

    Attributes:
        name: Pin name, e.g. ``"A"`` or ``"Q"``.
        direction: Whether the pin is an input or output of the cell.
        capacitance: Input pin capacitance in fF (0 for outputs).
        is_clock: True for the clock pin of sequential cells.
    """

    __slots__ = ("name", "direction", "capacitance", "is_clock")

    def __init__(
        self,
        name: str,
        direction: PinDirection,
        capacitance: float = 1.0,
        is_clock: bool = False,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "capacitance", capacitance)
        object.__setattr__(self, "is_clock", is_clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CellPin(name={self.name!r}, direction={self.direction!r}, "
            f"capacitance={self.capacitance!r}, is_clock={self.is_clock!r})"
        )


@dataclass
class MasterCell:
    """A library master cell (standard cell, macro, or cluster model).

    Timing uses a simple linear model per combinational arc:
    ``delay = intrinsic_delay + drive_resistance * load_capacitance``.
    Sequential cells expose ``clk_to_q``, ``setup_time`` and
    ``hold_time`` instead of combinational arcs.

    Attributes:
        name: Library name of the cell, e.g. ``"NAND2_X1"``.
        width: Physical width in microns.
        height: Physical height in microns.
        pins: Mapping from pin name to :class:`CellPin`.
        is_sequential: True for flip-flops / latches.
        is_macro: True for hard macros (RAMs) and cluster soft macros.
        intrinsic_delay: Fixed part of the combinational delay (ns).
        drive_resistance: Slope of delay vs. load (ns per fF).
        clk_to_q: Clock-to-output delay of sequential cells (ns).
        setup_time: Setup requirement at the D pin (ns).
        hold_time: Hold requirement at the D pin (ns).
        leakage_power: Static leakage power (mW).
        internal_energy: Energy per output toggle (fJ), used by the
            power analysis together with switching activity.
        cell_class: Coarse functional category used as the "cell type"
            ML feature (one of ``Design.CELL_CLASSES``).
    """

    name: str
    width: float
    height: float
    pins: Dict[str, CellPin] = field(default_factory=dict)
    is_sequential: bool = False
    is_macro: bool = False
    intrinsic_delay: float = 0.05
    drive_resistance: float = 0.004
    clk_to_q: float = 0.08
    setup_time: float = 0.04
    hold_time: float = 0.01
    leakage_power: float = 1e-5
    internal_energy: float = 0.5
    cell_class: str = "logic"

    @property
    def area(self) -> float:
        """Cell area in square microns."""
        return self.width * self.height

    def input_pins(self) -> List[CellPin]:
        """All non-clock input pins, in declaration order."""
        return [
            p
            for p in self.pins.values()
            if p.direction is PinDirection.INPUT and not p.is_clock
        ]

    def output_pins(self) -> List[CellPin]:
        """All output pins, in declaration order."""
        return [p for p in self.pins.values() if p.direction is PinDirection.OUTPUT]

    def clock_pin(self) -> Optional[CellPin]:
        """The clock pin if the cell is sequential, else None."""
        for pin in self.pins.values():
            if pin.is_clock:
                return pin
        return None


class PinRef(_FrozenSlots):
    """A reference to one pin of one instance (or a top-level port).

    ``instance`` is None when the reference denotes a top-level port, in
    which case ``pin_name`` holds the port name.
    """

    __slots__ = ("instance", "pin_name")

    def __init__(self, instance: Optional["Instance"], pin_name: str) -> None:
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "pin_name", pin_name)

    @property
    def is_port(self) -> bool:
        """True when this reference points at a top-level port."""
        return self.instance is None

    def direction(self, design: "Design") -> PinDirection:
        """Resolve the direction of the referenced pin."""
        if self.instance is None:
            return design.ports[self.pin_name].direction
        return self.instance.master.pins[self.pin_name].direction

    def capacitance(self, design: "Design") -> float:
        """Input capacitance presented by this pin (fF)."""
        if self.instance is None:
            return design.ports[self.pin_name].capacitance
        return self.instance.master.pins[self.pin_name].capacitance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owner = self.instance.name if self.instance else "<port>"
        return f"PinRef({owner}.{self.pin_name})"


class Instance:
    """A placed occurrence of a master cell.

    The hierarchical name encodes the logical hierarchy with ``/``
    separators; the final component is the local instance name.

    Attributes:
        name: Full hierarchical name, e.g. ``"u_core/u_alu/U12"``.
        master: The :class:`MasterCell` this instance instantiates.
        index: Dense integer id assigned by the owning :class:`Design`;
            used to index placement arrays and hypergraph vertices.
        x, y: Placement location of the instance centre (microns).
        fixed: True when the placer must not move the instance.
    """

    __slots__ = ("name", "master", "index", "x", "y", "fixed", "pin_nets")

    def __init__(self, name: str, master: MasterCell, index: int = -1) -> None:
        self.name = name
        self.master = master
        self.index = index
        self.x = 0.0
        self.y = 0.0
        self.fixed = False
        #: Mapping pin name -> Net, populated as nets are connected.
        self.pin_nets: Dict[str, "Net"] = {}

    @property
    def hierarchy_path(self) -> List[str]:
        """The logical-hierarchy modules enclosing this instance.

        For ``"u_core/u_alu/U12"`` this returns ``["u_core", "u_alu"]``.
        """
        parts = self.name.split("/")
        return parts[:-1]

    @property
    def local_name(self) -> str:
        """The leaf instance name without hierarchy prefix."""
        return self.name.rsplit("/", 1)[-1]

    @property
    def area(self) -> float:
        """Area of the master cell (square microns)."""
        return self.master.area

    def net_on(self, pin_name: str) -> Optional["Net"]:
        """The net connected to ``pin_name``, or None when unconnected."""
        return self.pin_nets.get(pin_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({self.name}:{self.master.name})"


class Net:
    """A signal net: a hyperedge with one driver and zero or more sinks.

    Attributes:
        name: Net name (hierarchical names are flattened with ``/``).
        driver: :class:`PinRef` of the driving pin (instance output or
            top-level input port); None for floating nets.
        sinks: List of :class:`PinRef` loads.
        index: Dense integer id assigned by the owning :class:`Design`.
        weight: Placement net weight (1.0 by default; the OpenROAD-mode
            seeded placement scales IO-net weights by 4).
        is_clock: True for clock-distribution nets (excluded from
            signal-placement objectives and routed by CTS instead).
    """

    __slots__ = (
        "name",
        "driver",
        "sinks",
        "index",
        "weight",
        "is_clock",
    )

    def __init__(self, name: str, index: int = -1) -> None:
        self.name = name
        self.driver: Optional[PinRef] = None
        self.sinks: List[PinRef] = []
        self.index = index
        self.weight = 1.0
        self.is_clock = False

    def pins(self) -> Iterator[PinRef]:
        """Iterate all pin references (driver first when present)."""
        if self.driver is not None:
            yield self.driver
        yield from self.sinks

    def instances(self) -> Iterator[Instance]:
        """Iterate distinct instances touched by this net."""
        seen = set()
        for ref in self.pins():
            inst = ref.instance
            if inst is not None and id(inst) not in seen:
                seen.add(id(inst))
                yield inst

    @property
    def fanout(self) -> int:
        """Number of sink pins."""
        return len(self.sinks)

    @property
    def degree(self) -> int:
        """Total number of pin connections (driver + sinks)."""
        return len(self.sinks) + (1 if self.driver is not None else 0)

    def touches_port(self) -> bool:
        """True when any connection is a top-level port (an IO net)."""
        return any(ref.is_port for ref in self.pins())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Net({self.name}, degree={self.degree})"


@dataclass
class Port:
    """A top-level IO port with a fixed location on the die boundary.

    Attributes:
        name: Port name.
        direction: INPUT ports drive nets; OUTPUT ports load them.
        x, y: Fixed location on the floorplan boundary (microns).
        capacitance: External load seen by output ports (fF).
    """

    name: str
    direction: PinDirection
    x: float = 0.0
    y: float = 0.0
    capacitance: float = 2.0


@dataclass
class Floorplan:
    """The die / core bounding box and row geometry.

    Attributes:
        die_width, die_height: Die bounding box (microns).
        core_margin: Margin between die edge and the placeable core.
        row_height: Standard-cell row height (microns).
        target_utilization: Fraction of core area available to cells.
    """

    die_width: float = 100.0
    die_height: float = 100.0
    core_margin: float = 2.0
    row_height: float = 1.4
    target_utilization: float = 0.7

    @property
    def core_llx(self) -> float:
        """Core lower-left x."""
        return self.core_margin

    @property
    def core_lly(self) -> float:
        """Core lower-left y."""
        return self.core_margin

    @property
    def core_urx(self) -> float:
        """Core upper-right x."""
        return self.die_width - self.core_margin

    @property
    def core_ury(self) -> float:
        """Core upper-right y."""
        return self.die_height - self.core_margin

    @property
    def core_width(self) -> float:
        """Width of the placeable core (microns)."""
        return self.core_urx - self.core_llx

    @property
    def core_height(self) -> float:
        """Height of the placeable core (microns)."""
        return self.core_ury - self.core_lly

    @property
    def core_area(self) -> float:
        """Area of the placeable core (square microns)."""
        return self.core_width * self.core_height


class Design:
    """The top-level design database.

    Holds masters, instances, nets and ports, assigns dense indices, and
    answers the structural queries (hypergraph view, hierarchy tree)
    that clustering and placement consume.

    Attributes:
        name: Design name.
        floorplan: The :class:`Floorplan` bounding box.
        clock_period: Target clock period from SDC (ns); None when the
            design is unconstrained.
        clock_port: Name of the clock source port, when present.
        input_activity: Toggle rate of the primary inputs (toggles per
            cycle) that vectorless activity propagation starts from;
            SDC ``set_switching_activity -toggle_rate``.
    """

    #: Coarse functional categories used as the categorical "cell type"
    #: ML feature (one-hot encoded to 8 dimensions by repro.ml.features).
    CELL_CLASSES: Tuple[str, ...] = (
        "logic",
        "inv",
        "buf",
        "seq",
        "arith",
        "mux",
        "macro",
        "io",
    )

    def __init__(self, name: str, floorplan: Optional[Floorplan] = None) -> None:
        self.name = name
        self.floorplan = floorplan or Floorplan()
        self.clock_period: Optional[float] = None
        self.clock_port: Optional[str] = None
        self.input_activity = DEFAULT_INPUT_ACTIVITY
        self.masters: Dict[str, MasterCell] = {}
        self.instances: List[Instance] = []
        self.nets: List[Net] = []
        self.ports: Dict[str, Port] = {}
        self._instance_by_name: Dict[str, Instance] = {}
        self._net_by_name: Dict[str, Net] = {}
        #: Monotonic counter bumped by every structural mutation made
        #: through the construction API (add_instance / add_net /
        #: add_port / connect).  The one derived cache — the
        #: :class:`repro.netlist.arrays.NetlistArrays` form — keys on
        #: :meth:`structure_key`.  Code that mutates connectivity
        #: *outside* the construction API (e.g. editing ``net.sinks`` in
        #: place) must call :meth:`bump_structure_version`.
        self._structure_version = 0
        #: Cached flat-array form (filled by Design.arrays()); what is
        #: derived from it (the timing graph) lives on it.
        self._netlist_arrays = None

    def __getstate__(self) -> Dict[str, object]:
        """Drop the flat form when pickling / copying: it is rebuildable
        and would otherwise drag numpy buffers (and the timing graph
        on it, whose ``arrays.design`` is the original) into the copy."""
        state = self.__dict__.copy()
        state.pop("_netlist_arrays", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._netlist_arrays = None

    # ------------------------------------------------------------------
    # Cache invalidation
    # ------------------------------------------------------------------
    def bump_structure_version(self) -> None:
        """Invalidate every structure-derived cache.

        Called automatically by the construction API; call it manually
        after mutating connectivity in place (editing ``net.sinks``,
        re-pointing a driver, flipping ``net.is_clock`` after
        construction has finished).
        """
        self._structure_version += 1
        self._netlist_arrays = None

    def structure_key(self) -> tuple:
        """Cheap fingerprint of the netlist structure.

        Combines the mutation counter with entity counts and the
        clock-net count, so caches also survive code paths that flip
        ``is_clock`` without touching the construction API.  The
        counter is what catches count-preserving edits (an ECO
        ``reconnect``, an add plus a remove in one script).
        """
        clock_nets = sum(1 for n in self.nets if n.is_clock)
        return (
            self._structure_version,
            len(self.instances),
            len(self.nets),
            len(self.ports),
            clock_nets,
        )

    # ------------------------------------------------------------------
    # Construction API
    # ------------------------------------------------------------------
    def add_master(self, master: MasterCell) -> MasterCell:
        """Register a master cell; returns the master for chaining."""
        if master.name in self.masters:
            raise ValueError(f"duplicate master cell {master.name!r}")
        self.masters[master.name] = master
        self._netlist_arrays = None  # its master tables are now short one
        return master

    def add_instance(self, name: str, master: MasterCell) -> Instance:
        """Create an instance of ``master`` with hierarchical ``name``."""
        if name in self._instance_by_name:
            raise ValueError(f"duplicate instance name {name!r}")
        if master.name not in self.masters:
            self.add_master(master)
        inst = Instance(name, master, index=len(self.instances))
        self.instances.append(inst)
        self._instance_by_name[name] = inst
        self.bump_structure_version()
        return inst

    def add_net(self, name: str) -> Net:
        """Create an empty net with the given name."""
        if name in self._net_by_name:
            raise ValueError(f"duplicate net name {name!r}")
        net = Net(name, index=len(self.nets))
        self.nets.append(net)
        self._net_by_name[name] = net
        self.bump_structure_version()
        return net

    def add_port(
        self,
        name: str,
        direction: PinDirection,
        x: float = 0.0,
        y: float = 0.0,
    ) -> Port:
        """Create a top-level IO port at a boundary location."""
        if name in self.ports:
            raise ValueError(f"duplicate port name {name!r}")
        port = Port(name, direction, x, y)
        self.ports[name] = port
        self.bump_structure_version()
        return port

    def connect(self, net: Net, ref: PinRef) -> None:
        """Attach a pin reference to a net as driver or sink.

        Output pins of instances and top-level INPUT ports drive the
        net; everything else is a sink.  A net may have only one driver.
        """
        direction = ref.direction(self)
        drives = (ref.is_port and direction is PinDirection.INPUT) or (
            not ref.is_port and direction is PinDirection.OUTPUT
        )
        if drives:
            if net.driver is not None:
                raise ValueError(f"net {net.name!r} already has a driver")
            net.driver = ref
        else:
            net.sinks.append(ref)
        if ref.instance is not None:
            existing = ref.instance.pin_nets.get(ref.pin_name)
            if existing is not None and existing is not net:
                raise ValueError(
                    f"pin {ref.instance.name}.{ref.pin_name} is already "
                    f"connected to net {existing.name!r}"
                )
            ref.instance.pin_nets[ref.pin_name] = net
        self.bump_structure_version()

    def connect_instance_pin(self, net: Net, instance: Instance, pin: str) -> None:
        """Convenience wrapper: connect ``instance.pin`` to ``net``."""
        if pin not in instance.master.pins:
            raise KeyError(f"{instance.master.name} has no pin {pin!r}")
        self.connect(net, PinRef(instance, pin))

    def connect_port(self, net: Net, port_name: str) -> None:
        """Convenience wrapper: connect a top-level port to ``net``."""
        if port_name not in self.ports:
            raise KeyError(f"no port {port_name!r}")
        self.connect(net, PinRef(None, port_name))

    # ------------------------------------------------------------------
    # Mutation API (ECO)
    # ------------------------------------------------------------------
    def disconnect_pin(self, instance: Instance, pin: str) -> Optional[Net]:
        """Detach ``instance.pin`` from its net; returns the old net.

        Removes the :class:`PinRef` from the net's driver/sink lists and
        from ``instance.pin_nets``, and invalidates every
        structure-derived cache (``arrays()`` and anything keyed on
        :meth:`structure_key`, such as the memoised
        ``Hypergraph.incidence`` held by
        :class:`repro.db.database.DesignDatabase`).  Returns None when
        the pin was unconnected.
        """
        net = instance.pin_nets.pop(pin, None)
        if net is None:
            return None
        ref = PinRef(instance, pin)
        if net.driver == ref:
            net.driver = None
        else:
            try:
                net.sinks.remove(ref)
            except ValueError:  # pragma: no cover - defensive
                pass
        self.bump_structure_version()
        return net

    def reconnect_pin(self, instance: Instance, pin: str, net: Net) -> None:
        """Move ``instance.pin`` onto ``net`` (ECO reconnect).

        Disconnects any existing connection first, then attaches through
        :meth:`connect` so driver/sink bookkeeping and cache
        invalidation follow the construction-API rules.
        """
        if pin not in instance.master.pins:
            raise KeyError(f"{instance.master.name} has no pin {pin!r}")
        if instance.pin_nets.get(pin) is net:
            return
        self.disconnect_pin(instance, pin)
        self.connect(net, PinRef(instance, pin))

    def remove_net(self, net: Net) -> None:
        """Delete a net, detaching every connected pin first.

        Net indices above the removed one are renumbered to stay dense
        (callers holding index-keyed arrays must remap — see
        :class:`repro.eco.apply.EcoImpact`).
        """
        if net.index < 0 or net.index >= len(self.nets) or self.nets[net.index] is not net:
            raise ValueError(f"net {net.name!r} is not owned by this design")
        for ref in list(net.pins()):
            inst = ref.instance
            if inst is not None and inst.pin_nets.get(ref.pin_name) is net:
                del inst.pin_nets[ref.pin_name]
        net.driver = None
        net.sinks = []
        self.nets.pop(net.index)
        del self._net_by_name[net.name]
        for i in range(net.index, len(self.nets)):
            self.nets[i].index = i
        net.index = -1
        self.bump_structure_version()

    def remove_instance(self, instance: Instance) -> None:
        """Delete an instance, detaching all its pins first.

        Instance indices above the removed one are renumbered to stay
        dense; nets the instance drove are left driverless (the ECO
        apply layer reconnects or removes them).
        """
        if (
            instance.index < 0
            or instance.index >= len(self.instances)
            or self.instances[instance.index] is not instance
        ):
            raise ValueError(f"instance {instance.name!r} is not owned by this design")
        for pin in list(instance.pin_nets):
            self.disconnect_pin(instance, pin)
        self.instances.pop(instance.index)
        del self._instance_by_name[instance.name]
        for i in range(instance.index, len(self.instances)):
            self.instances[i].index = i
        instance.index = -1
        self.bump_structure_version()

    def replace_master(self, instance: Instance, master: MasterCell) -> None:
        """Swap an instance's master in place (gate resize / cell swap).

        Every *connected* pin must exist on the new master with the same
        direction.  Connectivity is untouched, so the cached
        :class:`~repro.netlist.arrays.NetlistArrays` form is patched in
        place when the pin declarations match (falling back to a full
        rebuild otherwise), and the timing graph built on it is kept.
        """
        old = instance.master
        if master is old:
            return
        for pin_name in instance.pin_nets:
            new_pin = master.pins.get(pin_name)
            if new_pin is None:
                raise ValueError(
                    f"cannot swap {instance.name} to {master.name}: "
                    f"connected pin {pin_name!r} missing on new master"
                )
            if new_pin.direction is not old.pins[pin_name].direction:
                raise ValueError(
                    f"cannot swap {instance.name} to {master.name}: "
                    f"pin {pin_name!r} changes direction"
                )
        registered = self.masters.get(master.name)
        if registered is None:
            self.add_master(master)
        elif registered is not master:
            raise ValueError(
                f"a different master named {master.name!r} is already registered"
            )
        instance.master = master
        self._note_geometry_change(instance.index)

    def _note_geometry_change(self, inst_index: int) -> None:
        """Surgical invalidation after a connectivity-preserving edit.

        Bumps the structure version (so external caches keyed on
        :meth:`structure_key` — the database hypergraph, a V-P&R
        evaluation context — rebuild), but patches the array form in
        place via
        :meth:`repro.netlist.arrays.NetlistArrays.patch_instance_master`,
        so what lives on it (the timing graph) stays.
        """
        arrays = self._netlist_arrays
        old_key = self.structure_key()
        self.bump_structure_version()
        if arrays is None or arrays.structure_key != old_key:
            return
        if arrays.patch_instance_master(inst_index):
            arrays.structure_key = self.structure_key()
            self._netlist_arrays = arrays

    # ------------------------------------------------------------------
    # Lookup API
    # ------------------------------------------------------------------
    def instance(self, name: str) -> Instance:
        """Look up an instance by hierarchical name."""
        return self._instance_by_name[name]

    def net(self, name: str) -> Net:
        """Look up a net by name."""
        return self._net_by_name[name]

    def has_instance(self, name: str) -> bool:
        """True when an instance with this name exists."""
        return name in self._instance_by_name

    def arrays(self):
        """The flat array-native form (:class:`repro.netlist.arrays.NetlistArrays`).

        Built on first use and cached against :meth:`structure_key`;
        invalidated automatically by the construction API (see
        :meth:`bump_structure_version` for out-of-API mutations).
        """
        from repro.netlist.arrays import NetlistArrays

        key = self.structure_key()
        cached = self._netlist_arrays
        if cached is not None and cached.structure_key == key:
            return cached
        arrays = NetlistArrays.from_design(self)
        arrays.structure_key = key
        self._netlist_arrays = arrays
        return arrays

    def sequential_instances(self) -> List[Instance]:
        """All flip-flop / latch instances."""
        return [i for i in self.instances if i.master.is_sequential]

    def macro_instances(self) -> List[Instance]:
        """All hard-macro instances."""
        return [i for i in self.instances if i.master.is_macro]

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        """Number of instances."""
        return len(self.instances)

    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return len(self.nets)

    def total_cell_area(self) -> float:
        """Sum of instance areas (square microns)."""
        return sum(inst.area for inst in self.instances)

    def utilization(self) -> float:
        """Cell area divided by core area."""
        core = self.floorplan.core_area
        if core <= 0:
            return 0.0
        return self.total_cell_area() / core

    def stats(self) -> Dict[str, float]:
        """Summary statistics, as reported in Table 1 of the paper."""
        return {
            "instances": self.num_instances,
            "nets": self.num_nets,
            "ports": len(self.ports),
            "sequential": len(self.sequential_instances()),
            "macros": len(self.macro_instances()),
            "cell_area": self.total_cell_area(),
            "utilization": self.utilization(),
            "clock_period": self.clock_period or float("nan"),
        }

    def validate(self) -> List[str]:
        """Structural sanity checks; returns a list of problem strings.

        An empty list means the design is structurally sound: every net
        has a driver, pins exist on their masters, indices are dense.
        """
        problems: List[str] = []
        for i, inst in enumerate(self.instances):
            if inst.index != i:
                problems.append(f"instance {inst.name} has stale index {inst.index}")
        for i, net in enumerate(self.nets):
            if net.index != i:
                problems.append(f"net {net.name} has stale index {net.index}")
            if net.driver is None and net.degree > 0:
                problems.append(f"net {net.name} has no driver")
            for ref in net.pins():
                if ref.instance is not None and ref.pin_name not in ref.instance.master.pins:
                    problems.append(
                        f"net {net.name}: {ref.instance.name} has no pin {ref.pin_name}"
                    )
        return problems

    def positions(self) -> "Tuple[List[float], List[float]]":
        """Current (x, y) coordinate lists, indexed by instance index."""
        return [i.x for i in self.instances], [i.y for i in self.instances]

    def set_positions(self, xs: Iterable[float], ys: Iterable[float]) -> None:
        """Write placement coordinates back onto instances."""
        for inst, x, y in zip(self.instances, xs, ys):
            if not inst.fixed:
                inst.x = float(x)
                inst.y = float(y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Design({self.name}, insts={self.num_instances}, "
            f"nets={self.num_nets}, ports={len(self.ports)})"
        )
