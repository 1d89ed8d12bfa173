"""Property: after any ECO edit script, flat STA equals the object walk.

Edit scripts are drawn the way the spine's ``editgen.py`` draws them —
resize, swap, add, remove and reconnect, against the live design — but
by ``hypothesis``, so a failure shrinks to a minimal script.  A resize
or swap patches the flat form's master columns in place; add and
remove rebuild it; a reconnect moves the pin to the end of its new
net's pin list.  After the edits the flat engine must reproduce the
oracle (``tests/sta/reference.py``) bit for bit: the compilation's
tables, arrival / required times, WNS / TNS, hold, per-net activity
and the power report, under all three wire models.
"""

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.designs import DesignSpec, generate_design
from repro.eco import apply_edits, parse_edits
from repro.sta.activity import propagate_activity
from repro.sta.analysis import TimingAnalyzer
from repro.sta.flat import flat_for
from repro.sta.graph import TimingGraph, timing_graph_for
from repro.sta.hold import analyze_hold
from repro.sta.power import analyze_power
from tests.sta.reference import (
    WIRE_MODELS,
    ReferenceAnalyzer,
    analyze_hold_reference,
    analyze_power_reference,
    flat_tables_reference,
    make_wire_model,
    propagate_activity_reference,
    scatter,
)

KINDS = ("resize", "swap", "add", "remove", "reconnect")

#: Masters that may replace one another: same pin names and directions.
SWAP_FAMILIES = (
    ("NAND2", "NOR2", "AND2", "OR2", "XOR2", "XNOR2", "HA"),
    ("AOI21", "OAI21"),
    ("INV", "BUF"),
)
_FAMILY_OF = {base: family for family in SWAP_FAMILIES for base in family}


def _logic(design):
    return [
        inst
        for inst in design.instances
        if not inst.fixed
        and not inst.master.is_macro
        and not inst.master.is_sequential
    ]


def _draw_edit(data, design, kind, serial):
    """One valid edit of ``kind`` on the live design, or None."""
    logic = _logic(design)
    if not logic:
        return None
    if kind in ("resize", "swap"):
        inst = data.draw(st.sampled_from(logic))
        base, _, strength = inst.master.name.rpartition("_X")
        if kind == "resize":
            names = [f"{base}_X{s}" for s in ("1", "2", "4") if s != strength]
        else:
            names = [f"{o}_X{strength}" for o in _FAMILY_OF.get(base, ()) if o != base]
        options = [n for n in names if n in design.masters]
        if not options:
            return None
        master = data.draw(st.sampled_from(options))
        return {"kind": kind, "instance": inst.name, "master": master}
    if kind == "reconnect":
        # A register output as the new source can close no loop.
        sources = [
            net
            for net in design.nets
            if not net.is_clock
            and net.driver is not None
            and net.driver.instance is not None
            and net.driver.instance.master.is_sequential
        ]
        inst = data.draw(st.sampled_from(logic))
        pins = sorted(
            name
            for name, net in inst.pin_nets.items()
            if net.driver is None or net.driver.instance is not inst
        )
        targets = [net for net in sources if all(net is not n for n in inst.pin_nets.values())]
        if not pins or not targets:
            return None
        return {
            "kind": "reconnect",
            "instance": inst.name,
            "pin": data.draw(st.sampled_from(pins)),
            "net": data.draw(st.sampled_from(targets)).name,
        }
    if kind == "add":
        tapped = [
            net
            for net in design.nets
            if not net.is_clock and net.driver is not None and net.degree >= 2
        ]
        return {
            "kind": "add",
            "instance": f"u_prop_eco_{serial}",
            "master": "BUF_X1",
            "connections": {
                "A": data.draw(st.sampled_from(tapped)).name,
                "Y": f"n_prop_eco_{serial}",
            },
            "x": data.draw(st.floats(0.0, 50.0)),
            "y": data.draw(st.floats(0.0, 50.0)),
        }
    inst = data.draw(st.sampled_from(logic))
    return {"kind": "remove", "instance": inst.name}


def _assert_flat_equals_walk(design):
    graph = timing_graph_for(design.arrays())
    flat = flat_for(graph)
    oracle = TimingGraph(design.arrays())
    for name, expected in flat_tables_reference(oracle, design).items():
        assert getattr(flat, name).tolist() == expected.tolist(), name

    for make_model in WIRE_MODELS:
        model = make_wire_model(make_model, design)
        analyzer = TimingAnalyzer(graph, model, clock_uncertainty=0.01)
        reference = ReferenceAnalyzer(design, model, clock_uncertainty=0.01)
        got, want = analyzer.update(), reference.update()
        assert (got.wns, got.tns) == (want.wns, want.tns)
        assert got.endpoint_slacks == want.endpoint_slacks
        assert got.arrival == want.arrival
        assert got.required == want.required
        assert got.worst_pred == want.worst_pred
        hold, hold_want = analyze_hold(analyzer), analyze_hold_reference(reference)
        assert (hold.wns, hold.tns) == (hold_want.wns, hold_want.tns)
        assert hold.endpoint_slacks == hold_want.endpoint_slacks

    activity = propagate_activity(graph)
    assert activity.tolist() == propagate_activity_reference(design).tolist()
    for make_model in WIRE_MODELS:
        model = make_wire_model(make_model, design)
        kwargs = dict(clock_wirelength=80.0, clock_buffers=2)
        assert analyze_power(
            design.arrays(), model, activity, **kwargs
        ) == analyze_power_reference(design, model, activity, **kwargs)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_flat_sta_equals_walk_after_eco_edits(data):
    design = scatter(
        generate_design(
            DesignSpec(
                "eco_prop",
                120,
                clock_period=0.7,
                logic_depth=6,
                hierarchy_depth=2,
                hierarchy_branching=2,
                seed=data.draw(st.integers(0, 3)),
            )
        )
    )
    timing_graph_for(design.arrays())  # the pre-edit graph the edits invalidate
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    for serial, kind in enumerate(kinds):
        edit = _draw_edit(data, design, kind, serial)
        if edit is not None:
            apply_edits(design, parse_edits([edit]))
            event(f"applied {kind}")
    _assert_flat_equals_walk(design)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_resize_and_swap_keep_the_graph(data):
    """A resize / swap script patches the flat form, which keeps its
    graph instead of recompiling it, and the kept graph still times
    like the walk."""
    from repro import perf

    design = scatter(
        generate_design(
            DesignSpec(
                "eco_resize",
                120,
                clock_period=0.7,
                logic_depth=6,
                hierarchy_depth=2,
                hierarchy_branching=2,
                seed=data.draw(st.integers(0, 3)),
            )
        )
    )
    graph = timing_graph_for(design.arrays())
    flat_for(graph)  # the compilation the edits make stale
    kinds = data.draw(st.lists(st.sampled_from(("resize", "swap")), min_size=1, max_size=5))
    perf.enable()
    perf.reset()
    try:
        for serial, kind in enumerate(kinds):
            edit = _draw_edit(data, design, kind, serial)
            if edit is not None:
                apply_edits(design, parse_edits([edit]))
                event(f"applied {kind}")
        assert timing_graph_for(design.arrays()) is graph
        assert perf.counter_value("sta.graph.recompiled") == 0
    finally:
        perf.disable()
        perf.reset()
    _assert_flat_equals_walk(design)
