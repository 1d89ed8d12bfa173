"""Ratchet: ``pickle`` serialisation in ``src/repro`` only shrinks.

Every pickle site deserialises bytes from a file or a socket, so each
one is a trust boundary.  The remaining sites carry the fleet frame
envelope and the worker's state blob; :mod:`repro.codec` (JSON headers
plus ``.npy`` columns, which already carries the stage records of
checkpoints and the cache) is to replace them.  This
test pins today's sites by file: a new file or an extra call fails it,
and a removed one only lowers the bound the next change writes down.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

#: The sites allowed, per module path relative to ``src/repro``.
ALLOWED = {
    "core/wire.py": 2,  # frame encode / decode
    "core/fanout.py": 1,  # the sweep-state blob, parent side
    "core/worker.py": 1,  # the sweep-state blob, worker side
}

#: Names whose use off the ``pickle`` module is a serialisation site.
SITES = {"dumps", "loads", "dump", "load", "Pickler", "Unpickler"}
MODULES = {"pickle", "_pickle", "cPickle"}


def pickle_sites(source: str):
    """``(line, name)`` of every pickle serialisation site in a module."""
    tree = ast.parse(source)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if alias.name in SITES or alias.name == "*":
                    found.append((node.lineno, f"pickle.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in SITES
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((node.lineno, f"pickle.{node.attr}"))
    return found


def excess_sites(root: Path):
    """``path: count`` of every module over its :data:`ALLOWED` bound."""
    counts = Counter()
    for path in sorted(root.rglob("*.py")):
        sites = pickle_sites(path.read_text())
        if sites:
            counts[path.relative_to(root).as_posix()] += len(sites)
    return sorted(
        f"{name}: {count} > {ALLOWED.get(name, 0)}"
        for name, count in counts.items()
        if count > ALLOWED.get(name, 0)
    )


def test_scanner_catches_every_spelling():
    source = "\n".join(
        [
            "import pickle",
            "import pickle as pk",
            "import _pickle",
            "from pickle import loads",
            "from pickle import HIGHEST_PROTOCOL",
            "pickle.dumps(1, protocol=pickle.HIGHEST_PROTOCOL)",
            "pk.load(handle)",
            "_pickle.Unpickler(handle)",
            "json.loads('1')",
        ]
    )
    assert sorted(name for _, name in pickle_sites(source)) == [
        "pickle.Unpickler",
        "pickle.dumps",
        "pickle.load",
        "pickle.loads",
    ]


def test_no_new_pickle_site_in_src():
    assert excess_sites(Path(repro.__file__).parent) == []


def test_injected_site_fails_the_ratchet(tmp_path):
    src = Path(repro.__file__).parent
    for name in ALLOWED:
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text((src / name).read_text())
    assert excess_sites(tmp_path) == []
    (tmp_path / "core" / "codec.py").write_text(
        "import pickle\n\ndef decode(blob):\n    return pickle.loads(blob)\n"
    )
    assert excess_sites(tmp_path) == ["core/codec.py: 1 > 0"]
    with (tmp_path / "core" / "wire.py").open("a") as handle:
        handle.write("\nextra = pickle.loads(b'')\n")
    assert excess_sites(tmp_path) == [
        "core/codec.py: 1 > 0",
        "core/wire.py: 3 > 2",
    ]
