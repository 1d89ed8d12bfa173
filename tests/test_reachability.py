"""Ratchet: every line in ``src/repro`` is reached from a front door.

The front doors are the entry points a user or a process can start:
``python -m repro`` (:mod:`repro.__main__`, :mod:`repro.cli`), a served
job's runner, a fleet worker, and the scripts under ``examples/``.  The
test reads the AST only (nothing is imported) and asserts two things:

* every module under ``src/repro`` is reachable from a front door
  through ``import`` statements, at module or function level;
* every name a package ``__init__`` lists in ``__all__`` is referenced
  outside its defining module and that ``__init__`` -- by other
  ``src/repro`` code, a ``benchmarks/`` script or an example.  Tests do
  not count: a name only a test uses is dead code.

A study that only a benchmark runs lives beside it in ``benchmarks/``.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules a process starts from, besides the example scripts.
FRONT_DOORS = ("repro.__main__", "repro.cli", "repro.serve.runner", "repro.core.worker")

#: ``__all__`` names kept because ``docs/`` presents them as public API
#: although no caller outside their module uses them.  This list may
#: only shrink.
ALLOWED_UNUSED = frozenset(
    {
        "repro.monitor.get_monitor",  # docs/observability.md
        "repro.place.hpwl_module",  # docs/architecture.md
        "repro.telemetry.get_session",  # docs/observability.md
        "repro.telemetry.run_report",  # docs/observability.md
    }
)


def package_modules(src: Path):
    """``dotted name: path`` of every module of the ``repro`` package."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def imported_modules(tree, name: str, is_package: bool, known):
    """Known modules an import anywhere in ``tree`` loads, parents included."""
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = name if is_package else name.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{node.module}" if node.module else package
            else:
                base = node.module
            targets.append(base)
            targets.extend(f"{base}.{alias.name}" for alias in node.names)
    loaded = set()
    for target in targets:
        parts = target.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in known:
                loaded.add(prefix)
    return loaded


def unreachable_modules(src: Path, examples):
    """Modules of ``src/repro`` no front door imports, directly or not."""
    known = package_modules(src)
    trees = {name: ast.parse(path.read_text()) for name, path in known.items()}
    todo = [door for door in FRONT_DOORS if door in known]
    for path in examples:
        todo.extend(imported_modules(ast.parse(path.read_text()), "", False, known))
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        is_package = known[name].name == "__init__.py"
        todo.extend(imported_modules(trees[name], name, is_package, known) - seen)
    return sorted(set(known) - seen)


def referenced_names(tree):
    """Every identifier a module reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def exported_names(tree, name: str, known):
    """``(exported name, defining module)`` of a package's ``__all__``."""
    origin = {}
    exported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                origin[alias.asname or alias.name] = (
                    submodule if submodule in known else node.module
                )
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported = [element.value for element in node.value.elts]
    return [(export, origin.get(export, name)) for export in exported]


def unused_exports(src: Path, others, allowed=ALLOWED_UNUSED):
    """``package.name`` of every ``__all__`` entry nothing else uses,
    ``allowed`` aside.

    ``others`` are the scripts outside the package that count as
    callers (benchmarks and examples).
    """
    known = package_modules(src)
    trees = {path: ast.parse(path.read_text()) for path in known.values()}
    trees.update((path, ast.parse(path.read_text())) for path in others)
    references = {path: referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for package, path in known.items():
        if path.name != "__init__.py":
            continue
        for export, origin in exported_names(trees[path], package, known):
            skip = {path, known.get(origin)}
            if f"{package}.{export}" in allowed:
                continue
            if not any(
                export in names
                for where, names in references.items()
                if where not in skip
            ):
                unused.append(f"{package}.{export}")
    return sorted(unused)


def example_scripts(root: Path):
    return sorted((root / "examples").glob("*.py"))


def caller_scripts(root: Path):
    return sorted((root / "benchmarks").rglob("*.py")) + example_scripts(root)


def test_every_module_is_reached_from_a_front_door():
    assert unreachable_modules(SRC, example_scripts(ROOT)) == []


def test_every_exported_name_has_a_caller():
    assert unused_exports(SRC, caller_scripts(ROOT)) == []


def test_the_allowance_holds_only_names_still_without_a_caller():
    # A name that gained a caller, or left its ``__all__``, leaves the list.
    unused = unused_exports(SRC, caller_scripts(ROOT), allowed=frozenset())
    assert unused == sorted(ALLOWED_UNUSED)


def _write(root: Path, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_walk_follows_every_import_spelling(tmp_path):
    _write(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": "from . import a\nfrom .pkg import b\n",
            "src/repro/a.py": "def run():\n    import repro.c\n",
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/b.py": "from ..d import thing\n",
            "src/repro/c.py": "",
            "src/repro/d.py": "thing = 1\n",
            "src/repro/e.py": "",
            "src/repro/f.py": "",
            "src/repro/orphan.py": "import repro.a\n",
            "examples/demo.py": "from repro.e import x\nimport repro.f as f\n",
        },
    )
    examples = example_scripts(tmp_path)
    assert unreachable_modules(tmp_path / "src", examples) == ["repro.orphan"]
    assert unreachable_modules(tmp_path / "src", []) == [
        "repro.e",
        "repro.f",
        "repro.orphan",
    ]


def test_export_check_ignores_the_defining_module_and_tests(tmp_path):
    _write(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": "from repro.pkg import used\nused()\n",
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.m import used, unused, helper\n"
                "from repro.pkg import m\n"
                "__all__ = ['used', 'unused', 'helper', 'm']\n"
            ),
            "src/repro/pkg/m.py": (
                "def used():\n    unused()\n\n"
                "def unused():\n    pass\n\n"
                "def helper():\n    pass\n"
            ),
            "benchmarks/bench_x.py": "import repro.pkg as p\np.helper()\n",
            "tests/test_m.py": "from repro.pkg import unused, m\n",
        },
    )
    scripts = caller_scripts(tmp_path)
    assert unused_exports(tmp_path / "src", scripts) == [
        "repro.pkg.m",
        "repro.pkg.unused",
    ]


def test_injections_into_the_real_tree_fail_the_ratchet(tmp_path):
    shutil.copytree(SRC / "repro", tmp_path / "repro")
    examples = example_scripts(ROOT)
    callers = caller_scripts(ROOT)
    assert unreachable_modules(tmp_path, examples) == []
    assert unused_exports(tmp_path, callers) == []

    (tmp_path / "repro" / "core" / "orphan.py").write_text("def run():\n    pass\n")
    assert unreachable_modules(tmp_path, examples) == ["repro.core.orphan"]

    init = tmp_path / "repro" / "core" / "__init__.py"
    text = init.read_text().replace("__all__ = [", '__all__ = [\n    "orphan_entry",')
    init.write_text(text + "\nfrom repro.core.orphan import run as orphan_entry\n")
    assert unreachable_modules(tmp_path, examples) == []
    assert unused_exports(tmp_path, callers) == ["repro.core.orphan_entry"]
