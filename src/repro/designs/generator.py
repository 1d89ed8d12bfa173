"""Rent's-rule synthetic netlist generator.

Generates gate-level designs whose *statistics* match the paper's
testcases: instance/net counts, logical hierarchy shape, sequential
fraction, macro content, IO count and clock constraints.  Connectivity
is generated with hierarchical locality — a sink prefers a driver in
its own module, then a sibling module, then anywhere — which yields the
Rent-exponent behaviour the hierarchy-based clustering of Algorithm 2
relies on, and rank-ordered combinational edges guarantee an acyclic
timing graph.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints

from repro.designs import enablements
from repro.netlist.design import (
    Design,
    Floorplan,
    Instance,
    MasterCell,
    PinDirection,
)


@dataclass
class DesignSpec:
    """Parameters of one synthetic design.

    Attributes:
        name: Design name.
        num_instances: Target standard-cell instance count (macros are
            added on top of this).
        seq_fraction: Fraction of instances that are flip-flops.
        hierarchy_depth: Depth of the logical module tree.
        hierarchy_branching: Fanout of internal module-tree nodes.
        locality: Probability that a sink picks a driver inside its own
            leaf module; the remainder spills to siblings then anywhere.
        sibling_bias: Given a non-local sink, probability of picking a
            sibling module rather than a uniformly random one.
        num_macros: Number of RAM hard macros.
        num_ports: Top-level IO count; None derives ~4*sqrt(n) from
            Rent's rule.
        logic_depth: Number of combinational rank levels; the longest
            register-to-register gate chain is bounded by this, which
            (with the clock period) controls how critical the design
            is.
        critical_chains: Explicit register-to-register chains of
            ~logic_depth gates (one cell per level), modelling critical
            pipeline stages; guarantees the worst path exercises the
            full logic depth.
        enablement: Standard-cell enablement: "nangate45" (default) or
            "asap7" (see repro.designs.enablements).
        clock_period: Target clock period (ns); None = unconstrained.
        target_utilization: Core utilization used to size the floorplan.
        high_fanout_nets: Number of control-style nets with large
            fanout (reset / enable trees).
        seed: RNG seed; generation is fully deterministic given a seed.
    """

    name: str
    num_instances: int
    seq_fraction: float = 0.15
    hierarchy_depth: int = 3
    hierarchy_branching: int = 4
    locality: float = 0.72
    sibling_bias: float = 0.6
    num_macros: int = 0
    num_ports: Optional[int] = None
    clock_period: Optional[float] = 1.0
    target_utilization: float = 0.62
    high_fanout_nets: int = 4
    logic_depth: int = 14
    critical_chains: int = 3
    enablement: str = "nangate45"
    seed: int = 1

    @classmethod
    def from_params(cls, params: object) -> "DesignSpec":
        """Validate a JSON-style parameter object into a spec — the one
        check behind both front doors (``repro flow --generator`` and a
        serve job's ``design`` object).  Raises :class:`ValueError`
        naming the offending or missing field(s)."""
        if not isinstance(params, dict):
            raise ValueError("generator parameters must be a JSON object")
        known = sorted(f.name for f in fields(cls))
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise ValueError(
                f"unknown DesignSpec field(s): {unknown}; accepted: {known}"
            )
        for required in ("name", "num_instances"):
            if required not in params:
                raise ValueError(f"generator design requires {required!r}")
        hints = get_type_hints(cls)
        return cls(
            **{name: _checked(name, v, hints[name]) for name, v in params.items()}
        )


_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")
_COUNT = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v >= 1, ">= 1")
#: What :meth:`DesignSpec.from_params` accepts of each field beyond its
#: annotated type (``seed``, absent here, takes any integer).
_RANGES = {
    "name": (lambda v: v != "", "a non-empty string"),
    "num_instances": _POSITIVE,
    "seq_fraction": _UNIT,
    "hierarchy_depth": _COUNT,
    "hierarchy_branching": _POSITIVE,
    "locality": _UNIT,
    "sibling_bias": _UNIT,
    "num_macros": _COUNT,
    "num_ports": _COUNT,
    "clock_period": (lambda v: v > 0, "> 0"),
    "target_utilization": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "high_fanout_nets": _COUNT,
    "logic_depth": _POSITIVE,
    "critical_chains": _COUNT,
    "enablement": (
        lambda v: v in enablements.available(),
        f"one of {enablements.available()}",
    ),
}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a finite number"}


def _checked(name: str, value: object, hint: object) -> object:
    """``value`` as DesignSpec field ``name`` of annotated type ``hint``,
    inside the field's :data:`_RANGES`: a bool is not an integer, an
    integer is accepted (as a float) where a float is expected, and
    ``Optional`` admits None.  ``ValueError`` naming the field otherwise."""
    kinds = get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        want = _TYPE_NAMES[kind] + (" or null" if len(kinds) > 1 else "")
    else:
        accepts, want = _RANGES.get(name, (None, ""))
        if accepts is None or accepts(value):
            return value
    raise ValueError(f"DesignSpec field {name!r} must be {want}; got {value!r}")


@dataclass
class _Module:
    """A leaf module of the hierarchy during generation."""

    path: str
    parent_path: str
    budget: int = 0
    comb: List[Instance] = field(default_factory=list)
    comb_ranks: List[float] = field(default_factory=list)
    seq: List[Instance] = field(default_factory=list)


def generate_design(spec: DesignSpec) -> Design:
    """Generate a design from a spec.  Deterministic for a fixed seed."""
    rng = random.Random(spec.seed)
    enablement = enablements.get_enablement(spec.enablement)
    masters = enablement.make_library()
    design = Design(spec.name)
    for master in masters.values():
        design.masters.setdefault(master.name, master)

    modules = _build_modules(spec, rng)
    _populate_instances(design, spec, modules, masters, enablement, rng)
    macros = _add_macros(design, spec, masters, modules, enablement, rng)
    input_ports, output_ports = _add_ports(design, spec, rng)
    _generate_nets(design, spec, modules, macros, input_ports, output_ports, rng)
    _add_clock(design, spec)
    _size_floorplan(design, spec)
    _place_ports(design)
    _preplace_macros(design, [m for m, _home in macros], rng)
    return design


# ----------------------------------------------------------------------
# Hierarchy
# ----------------------------------------------------------------------
def _build_modules(spec: DesignSpec, rng: random.Random) -> List[_Module]:
    """Split the instance budget across a branching module tree."""
    modules: List[_Module] = []

    def recurse(path: str, parent: str, budget: int, depth: int) -> None:
        min_leaf = max(20, spec.hierarchy_branching * 10)
        if depth >= spec.hierarchy_depth or budget <= min_leaf:
            modules.append(_Module(path=path, parent_path=parent, budget=budget))
            return
        branching = spec.hierarchy_branching
        # Random but bounded-away-from-zero proportions.
        shares = [0.5 + rng.random() for _ in range(branching)]
        total = sum(shares)
        remaining = budget
        for i in range(branching):
            part = int(budget * shares[i] / total) if i < branching - 1 else remaining
            part = min(part, remaining)
            remaining -= part
            if part <= 0:
                continue
            child = f"{path}/m{depth}_{i}" if path else f"m{depth}_{i}"
            recurse(child, path, part, depth + 1)

    recurse("", "", spec.num_instances, 0)
    return modules


def _populate_instances(
    design: Design,
    spec: DesignSpec,
    modules: List[_Module],
    masters: Dict[str, MasterCell],
    enablement: "enablements.Enablement",
    rng: random.Random,
) -> None:
    """Fill each leaf module with a comb/seq cell mix."""
    comb_names = [name for name, _w in enablement.comb_mix]
    comb_weights = [w for _name, w in enablement.comb_mix]
    seq_names = [name for name, _w in enablement.seq_mix]
    seq_weights = [w for _name, w in enablement.seq_mix]
    counter = 0
    for module in modules:
        budget = module.budget
        num_seq = int(round(budget * spec.seq_fraction))
        num_comb = budget - num_seq
        chosen_comb = rng.choices(comb_names, weights=comb_weights, k=num_comb)
        chosen_seq = rng.choices(seq_names, weights=seq_weights, k=num_seq)
        prefix = module.path + "/" if module.path else ""
        for master_name in chosen_comb:
            inst = design.add_instance(f"{prefix}U{counter}", masters[master_name])
            counter += 1
            module.comb.append(inst)
            # Quantized logic level: bounds combinational depth by
            # spec.logic_depth (edges go strictly level-up).
            module.comb_ranks.append(float(rng.randrange(spec.logic_depth)))
        for master_name in chosen_seq:
            inst = design.add_instance(f"{prefix}FF{counter}", masters[master_name])
            counter += 1
            module.seq.append(inst)
        # Sort comb instances by rank so prefix sampling is cheap.
        order = sorted(range(len(module.comb)), key=lambda i: module.comb_ranks[i])
        module.comb = [module.comb[i] for i in order]
        module.comb_ranks = sorted(module.comb_ranks)


def _add_macros(
    design: Design,
    spec: DesignSpec,
    masters: Dict[str, MasterCell],
    modules: List[_Module],
    enablement: "enablements.Enablement",
    rng: random.Random,
) -> List[Tuple[Instance, _Module]]:
    """Instantiate RAM macros, each "homed" in a random module."""
    macros: List[Tuple[Instance, _Module]] = []
    for i in range(spec.num_macros):
        home = rng.choice(modules)
        prefix = home.path + "/" if home.path else ""
        inst = design.add_instance(
            f"{prefix}ram{i}", masters[enablement.ram_cell]
        )
        macros.append((inst, home))
    return macros


def _add_ports(
    design: Design, spec: DesignSpec, rng: random.Random
) -> Tuple[List[str], List[str]]:
    """Create IO ports (~4*sqrt(n) by default, 60/40 in/out split)."""
    n_ports = spec.num_ports
    if n_ports is None:
        n_ports = max(16, int(4 * math.sqrt(spec.num_instances)))
    n_in = max(2, int(n_ports * 0.6))
    n_out = max(2, n_ports - n_in)
    inputs = []
    outputs = []
    for i in range(n_in):
        design.add_port(f"in{i}", PinDirection.INPUT)
        inputs.append(f"in{i}")
    for i in range(n_out):
        design.add_port(f"out{i}", PinDirection.OUTPUT)
        outputs.append(f"out{i}")
    design.add_port("clk", PinDirection.INPUT)
    return inputs, outputs


# ----------------------------------------------------------------------
# Connectivity
# ----------------------------------------------------------------------
def _generate_nets(
    design: Design,
    spec: DesignSpec,
    modules: List[_Module],
    macros: List[Tuple[Instance, _Module]],
    input_ports: List[str],
    output_ports: List[str],
    rng: random.Random,
) -> None:
    """Assign a driver to every input pin, then materialise the nets.

    Combinational edges respect the per-module rank order (driver rank
    strictly below sink rank) so the resulting timing graph is a DAG.
    """
    by_path = {m.path: m for m in modules}
    siblings: Dict[str, List[_Module]] = {}
    for module in modules:
        siblings.setdefault(module.parent_path, []).append(module)

    # driver key -> list of (instance or None, pin name)
    sink_map: Dict[Tuple[Optional[int], str], List[Tuple[Optional[Instance], str]]] = {}
    #: Sink pins already claimed (by critical chains), skipped later.
    driven_pins: set = set()

    def driver_key(inst: Optional[Instance], pin: str) -> Tuple[Optional[int], str]:
        return (inst.index if inst is not None else None, pin)

    def assign(driver: Tuple[Optional[Instance], str], sink: Tuple[Optional[Instance], str]) -> None:
        key = driver_key(*driver)
        sink_map.setdefault(key, []).append(sink)
        fanout_count[key] = fanout_count.get(key, 0) + 1
        sink_inst, sink_pin = sink
        if sink_inst is not None:
            driven_pins.add((sink_inst.index, sink_pin))

    def pick_module_for(module: _Module) -> _Module:
        """Locality-aware module choice for a non-local driver."""
        sibs = [m for m in siblings.get(module.parent_path, []) if m is not module]
        if sibs and rng.random() < spec.sibling_bias:
            return rng.choice(sibs)
        return rng.choice(modules)

    fanout_count: Dict[Tuple[Optional[int], str], int] = {}

    def balanced_pick(candidates: List[Instance], pin: str) -> Instance:
        """Two-choice sampling biased toward less-loaded drivers.

        Spreads sinks across drivers so most cell outputs end up used,
        matching the net/instance ratio of real synthesised netlists.
        """
        a = rng.choice(candidates)
        b = rng.choice(candidates)
        fa = fanout_count.get((a.index, pin), 0)
        fb = fanout_count.get((b.index, pin), 0)
        return a if fa <= fb else b

    def pick_comb_driver(module: _Module, max_rank: Optional[float]) -> Optional[Instance]:
        """Pick a comb driver in ``module`` with rank below ``max_rank``."""
        if not module.comb:
            return None
        if max_rank is None:
            return balanced_pick(module.comb, "Y")
        import bisect

        hi = bisect.bisect_left(module.comb_ranks, max_rank)
        if hi == 0:
            return None
        return balanced_pick(module.comb[:hi], "Y")

    def pick_driver(
        module: _Module, sink_rank: Optional[float]
    ) -> Tuple[Optional[Instance], str]:
        """Pick a driver for a sink in ``module``.

        ``sink_rank`` is the comb rank constraint (None for FF D pins
        and macro inputs, which end timing paths).
        """
        home = module if rng.random() < spec.locality else pick_module_for(module)
        # Prefer a combinational driver; fall back to a FF Q, then a port.
        for candidate_module in (home, module):
            roll = rng.random()
            if roll < 0.8:
                inst = pick_comb_driver(candidate_module, sink_rank)
                if inst is not None:
                    return inst, "Y"
            if candidate_module.seq:
                return balanced_pick(candidate_module.seq, "Q"), "Q"
            inst = pick_comb_driver(candidate_module, sink_rank)
            if inst is not None:
                return inst, "Y"
        return None, rng.choice(input_ports)

    # 0. Explicit critical chains: one cell per logic level,
    # FF.Q -> U -> ... -> U -> FF.D.  These model critical pipeline
    # stages and pin the worst path depth at ~logic_depth.  A chain
    # draws its cells from a small group of modules (levels increase
    # globally, so cross-module hops preserve acyclicity) — which also
    # creates the inter-module critical paths that timing-aware
    # clustering is designed to keep together.
    seq_modules = [m for m in modules if m.seq and m.comb]
    for chain_idx in range(min(spec.critical_chains, len(seq_modules))):
        module = seq_modules[chain_idx % len(seq_modules)]
        group = [module]
        # Widen the module group until every level has a candidate.
        pool = [m for m in modules if m is not module and m.comb]
        rng.shuffle(pool)
        per_level: Dict[int, List[Instance]] = {}

        def add_module_levels(m: _Module) -> None:
            for pos, inst in enumerate(m.comb):
                per_level.setdefault(int(m.comb_ranks[pos]), []).append(inst)

        add_module_levels(module)
        for extra in pool:
            if len(per_level) >= spec.logic_depth:
                break
            group.append(extra)
            add_module_levels(extra)
        chain: List[Tuple[Instance, str, str]] = []  # (inst, in pin, out pin)
        for level in sorted(per_level):
            inst = rng.choice(per_level[level])
            in_pin = inst.master.input_pins()[0].name
            if (inst.index, in_pin) in driven_pins:
                continue
            chain.append((inst, in_pin, "Y"))
        if len(chain) < 2:
            continue
        start_ff = rng.choice(module.seq)
        assign((start_ff, "Q"), (chain[0][0], chain[0][1]))
        for (prev, _pi, prev_out), (nxt, nxt_in, _po) in zip(chain, chain[1:]):
            assign((prev, prev_out), (nxt, nxt_in))
        end_ff = rng.choice(module.seq)
        if (end_ff.index, "D") not in driven_pins:
            assign((chain[-1][0], "Y"), (end_ff, "D"))

    # 1. Wire macro data/address pins from their home module (before
    # the exhaustive pass so macro outputs find free sink pins).
    for macro, home in macros:
        for pin in macro.master.input_pins():
            driver = pick_driver(home, None)
            assign(driver, (macro, pin.name))
        # Macro outputs drive sinks in the home and sibling modules.
        for pin in macro.master.output_pins():
            for _ in range(rng.randint(1, 3)):
                target = home if rng.random() < 0.7 else pick_module_for(home)
                sink = _free_sink(target, rng, driven_pins)
                if sink is not None:
                    assign((macro, pin.name), sink)

    # 2. High-fanout control nets (reset / enable style) — also before
    # the exhaustive pass, while free pins are plentiful.
    all_seq = [inst for m in modules for inst in m.seq]
    for _ in range(spec.high_fanout_nets):
        if not all_seq:
            break
        driver_inst = rng.choice(all_seq)
        fanout = rng.randint(20, 60)
        for _ in range(fanout):
            module = rng.choice(modules)
            sink = _free_sink(module, rng, driven_pins)
            if sink is not None:
                assign((driver_inst, "Q"), sink)

    # 3. Wire every remaining standard-cell input pin.
    for module in modules:
        for pos, inst in enumerate(module.comb):
            rank = module.comb_ranks[pos]
            for pin in inst.master.input_pins():
                if (inst.index, pin.name) in driven_pins:
                    continue
                driver = pick_driver(module, rank)
                assign(driver, (inst, pin.name))
        for inst in module.seq:
            if (inst.index, "D") in driven_pins:
                continue
            driver = pick_driver(module, None)
            assign(driver, (inst, "D"))

    # 4. Output ports load a random driver's net.
    for port_name in output_ports:
        module = rng.choice(modules)
        driver = pick_driver(module, None)
        assign(driver, (None, port_name))

    # 5. Materialise nets (one net per driver with sinks).
    net_counter = 0
    for (inst_index, pin_name), sinks in sink_map.items():
        if inst_index is None:
            # Driven by an input port named pin_name.
            net = design.add_net(pin_name + "_net")
            design.connect_port(net, pin_name)
        else:
            inst = design.instances[inst_index]
            net = design.add_net(f"n{net_counter}")
            net_counter += 1
            design.connect_instance_pin(net, inst, pin_name)
        seen: set = set()
        for sink_inst, sink_pin in sinks:
            key = (sink_inst.index if sink_inst else None, sink_pin)
            if key in seen:
                continue
            seen.add(key)
            if sink_inst is None:
                design.connect_port(net, sink_pin)
            else:
                design.connect_instance_pin(net, sink_inst, sink_pin)


def _free_sink(
    module: _Module, rng: random.Random, driven_pins: set
) -> Optional[Tuple[Instance, str]]:
    """Pick an undriven input pin in ``module``, or None.

    ``driven_pins`` is the generator-wide set of (instance index, pin)
    sink assignments made so far — pins must be driven exactly once.
    """
    candidates = module.comb + module.seq
    if not candidates:
        return None
    for _ in range(8):
        inst = rng.choice(candidates)
        pins = [
            p.name
            for p in inst.master.input_pins()
            if (inst.index, p.name) not in driven_pins
        ]
        if pins:
            return inst, rng.choice(pins)
    return None


def _add_clock(design: Design, spec: DesignSpec) -> None:
    """Connect the clock port to every sequential CK pin."""
    clock_net = design.add_net("clk_net")
    clock_net.is_clock = True
    design.connect_port(clock_net, "clk")
    for inst in design.instances:
        clock_pin = inst.master.clock_pin()
        if clock_pin is not None:
            design.connect_instance_pin(clock_net, inst, clock_pin.name)
    design.clock_period = spec.clock_period
    design.clock_port = "clk"


# ----------------------------------------------------------------------
# Floorplan
# ----------------------------------------------------------------------
def _size_floorplan(design: Design, spec: DesignSpec) -> None:
    """Square die sized so core utilization hits the spec target."""
    enablement = enablements.get_enablement(spec.enablement)
    cell_area = design.total_cell_area()
    core_area = cell_area / spec.target_utilization
    margin = max(2.0 * enablement.row_height, 0.5)
    side = math.sqrt(core_area) + 2 * margin
    design.floorplan = Floorplan(
        die_width=side,
        die_height=side,
        core_margin=margin,
        row_height=enablement.row_height,
        target_utilization=spec.target_utilization,
    )


def _place_ports(design: Design) -> None:
    """Distribute ports evenly around the die periphery."""
    fp = design.floorplan
    names = sorted(design.ports)
    perimeter = 2 * (fp.die_width + fp.die_height)
    for i, name in enumerate(names):
        port = design.ports[name]
        t = (i + 0.5) / len(names) * perimeter
        if t < fp.die_width:
            port.x, port.y = t, 0.0
        elif t < fp.die_width + fp.die_height:
            port.x, port.y = fp.die_width, t - fp.die_width
        elif t < 2 * fp.die_width + fp.die_height:
            port.x, port.y = t - fp.die_width - fp.die_height, fp.die_height
        else:
            port.x, port.y = 0.0, t - 2 * fp.die_width - fp.die_height


def _preplace_macros(
    design: Design, macros: Sequence[Instance], rng: random.Random
) -> None:
    """Fix macros along the left/right core edges (as the .def would)."""
    if not macros:
        return
    fp = design.floorplan
    per_side = math.ceil(len(macros) / 2)
    for i, macro in enumerate(macros):
        side = i // per_side  # 0 = left, 1 = right
        slot = i % per_side
        y = fp.core_lly + (slot + 0.5) * fp.core_height / per_side
        if side == 0:
            x = fp.core_llx + macro.master.width / 2
        else:
            x = fp.core_urx - macro.master.width / 2
        macro.x, macro.y = x, y
        macro.fixed = True
