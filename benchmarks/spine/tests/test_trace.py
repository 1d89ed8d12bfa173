import importlib

import pytest

from benchmarks.spine import trace


def test_self_time_on_a_hand_built_tree():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    #  lone [20, 21]            (op 1)
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a1", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("lone", 20.0, 21.0, -1, 1),
    ]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    # Self times partition the root's duration.
    assert sum(trace.self_times(spans)[:4]) == 10.0

    first = trace.summarize(spans, lambda op: op == 0)
    assert first.total == {"root": 10.0, "a": 3.0, "a1": 1.0, "b": 4.0}
    assert first.self_time["root"] == 3.0
    assert first.calls["a"] == 1 and "lone" not in first.calls
    everything = trace.summarize(spans, lambda op: op >= 0)
    assert everything.median("lone") == 1.0
    assert everything.median("absent") == 0.0


def test_unfinished_spans_are_skipped():
    spans = [("root", 0.0, 5.0, -1, 0), None, ("kid", 1.0, 2.0, 0, 0)]
    assert trace.self_times(spans) == [4.0, 0.0, 1.0]


def _bindings():
    """Every (holder, attribute, object) the tracer may replace."""
    out = []
    for _name, module_name, attribute in trace.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            owner_name, method = attribute.split(".")
            owner = getattr(module, owner_name)
            out.append((owner, method, owner.__dict__[method]))
        else:
            out.append((module, attribute, getattr(module, attribute)))
    return out


def test_wrappers_record_nested_spans_and_are_removed():
    import repro.core.flow as flow_module
    import repro.route.global_route as route_module
    from repro.designs.generator import DesignSpec, generate_design
    from repro.route.steiner import rsmt

    before = _bindings()
    flow_rsmt = route_module.rsmt
    assert flow_rsmt is rsmt

    tracer = trace.Tracer()
    design = generate_design(DesignSpec("t", 300, seed=3))
    with tracer.installed(op=7):
        # `from x import f` bindings in other modules are re-pointed too.
        assert route_module.rsmt is not rsmt
        assert flow_module.GlobalRouter.run is not before[0][2]
        from repro.core.flow import default_flow

        default_flow(design)
    spans = tracer.finished_spans()
    names = {s[0] for s in spans}
    assert {"place.global", "place.b2b_solve", "route.global", "route.rsmt"} <= names
    assert all(s[4] == 7 for s in spans)
    by_index = tracer.spans
    for span in spans:
        if span[0] == "route.rsmt":
            assert by_index[span[3]][0] == "route.global"
        if span[0] == "place.b2b_solve":
            assert by_index[span[3]][0] == "place.global"

    # Function identities are restored exactly.
    assert route_module.rsmt is rsmt
    for (owner, attribute, original), (_, _, now) in zip(before, _bindings()):
        assert now is original, f"{owner.__name__}.{attribute} not restored"
    with pytest.raises(RuntimeError):
        tracer.install()
        tracer.install()
    tracer.uninstall()
    assert route_module.rsmt is rsmt


def test_trace_file_round_trips(tmp_path):
    import json

    tracer = trace.Tracer()
    tracer.spans.extend([("a", 0.0, 1.0, -1, 0), None, ("b", 0.2, 0.4, 0, 0)])
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    document = json.loads(path.read_text())
    assert document["names"] == ["a", "b"]
    assert document["spans"] == [[0, 0.0, 1.0, -1, 0], None, [1, 0.2, 0.4, 0, 0]]
