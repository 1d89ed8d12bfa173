import pytest

from benchmarks.spine import editgen


@pytest.fixture()
def design():
    from repro.designs.generator import DesignSpec, generate_design

    return generate_design(DesignSpec("t", 500, seed=11))


def test_scripts_are_accepted_by_parse_and_apply(design):
    from repro.eco import apply_edits, parse_edits

    generator = editgen.EditScriptGenerator(seed=1)
    kinds = set()
    for _ in range(60):
        script = generator.script(design)
        assert 1 <= len(script) <= 3
        assert len({e["instance"] for e in script}) == len(script)
        script_kinds = {e["kind"] for e in script}
        assert not {"add", "remove"} <= script_kinds
        kinds |= script_kinds
        apply_edits(design, parse_edits(script))
    assert kinds == {"resize", "swap", "add", "remove"}


def test_every_kind_including_reconnect_is_valid(design):
    from repro.eco import apply_edits, parse_edits

    generator = editgen.EditScriptGenerator(seed=2)
    for kind, _ in editgen.KIND_MIX:
        applied = 0
        for _ in range(30):
            # None = the drawn instance admits no such edit (an FA has
            # no swap partner); the script loop simply draws again.
            edit = generator._edit(kind, design, set())
            if edit is not None:
                assert edit["kind"] == kind
                apply_edits(design, parse_edits([edit]))
                applied += 1
        assert applied >= 10, kind


def test_same_seed_same_scripts(design):
    from repro.designs.generator import DesignSpec, generate_design

    twin = generate_design(DesignSpec("t", 500, seed=11))
    a = editgen.EditScriptGenerator(seed=9)
    b = editgen.EditScriptGenerator(seed=9)
    assert [a.script(design) for _ in range(5)] == [b.script(twin) for _ in range(5)]
