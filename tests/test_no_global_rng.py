"""Ratchet: ``src/repro`` never draws from or seeds a global generator.

Every stream is an explicit ``random.Random(seed)`` or
``np.random.default_rng(seed)``.  That is what lets a resumed run
replay an uninterrupted one with no RNG state in the checkpoint
(``tests/recovery/test_resume_flow.py`` scrambles both global
generators between abort and resume to prove it).
"""

import ast
from pathlib import Path

import repro

#: What may be named off each generator module: constructors of
#: explicit generators (and their types, for annotations).
ALLOWED = {
    "random": {"Random"},
    "numpy.random": {"default_rng", "Generator"},
}


def global_rng_uses(source: str):
    """``(line, dotted name)`` of every global-generator use in a module."""
    tree = ast.parse(source)
    modules = {}  # local alias -> "random" / "numpy.random" / "numpy"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("random", "numpy", "numpy.random"):
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:  # ``import numpy.random`` binds ``numpy``
                        top = alias.name.split(".")[0]
                        modules[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        modules[alias.asname or "random"] = "numpy.random"
            elif node.module in ALLOWED:
                for alias in node.names:
                    if alias.name not in ALLOWED[node.module]:
                        found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name):
            module = modules.get(base.id)
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and modules.get(base.value.id) == "numpy"
        ):
            module = "numpy.random"
        else:
            continue
        if module in ALLOWED and node.attr not in ALLOWED[module]:
            found.append((node.lineno, f"{module}.{node.attr}"))
    return found


def test_scanner_catches_every_spelling():
    source = "\n".join(
        [
            "import random",
            "import numpy as np",
            "import numpy.random as npr",
            "from numpy import random as nrandom",
            "from random import shuffle",
            "rng = random.Random(1)",
            "gen = np.random.default_rng(1)",
            "random.seed(0)",
            "np.random.seed(0)",
            "x = np.random.rand(3)",
            "npr.shuffle([1])",
            "nrandom.normal()",
            "random.random()",
        ]
    )
    assert sorted(name for _, name in global_rng_uses(source)) == [
        "numpy.random.normal",
        "numpy.random.rand",
        "numpy.random.seed",
        "numpy.random.shuffle",
        "random.random",
        "random.seed",
        "random.shuffle",
    ]


def test_no_global_generator_in_src():
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for line, name in global_rng_uses(path.read_text()):
            offenders.append(f"{path.name}:{line}: {name}")
    assert offenders == []
