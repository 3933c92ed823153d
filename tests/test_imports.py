"""Static checks of the package source and its import structure.

The intra-package ``from .x import`` graph has no cycle (its layers run
words, rings, poly, division, spolys, quotient, pbw, with textio and cli
on top), and every import sits in a module's header, before its first
top-level ``def`` or ``class``.  A late or function-level import is how
a cycle gets hidden, so both are rejected.  Three scans keep the source
clean: every module but ``__init__`` (which re-exports) reads each name
it imports, so a deletion leaves no stale import behind; no module holds
an ``assert`` statement, because soundness checks must be exceptions
that still run under ``python -O``; and a fresh ``import ugb.cli`` with
site-packages off loads only standard-library modules, and neither
``dataclasses`` nor ``inspect``, which would dominate the CLI's
start-up.  Each scan first finds a planted violation, so an empty result
cannot pass by default."""

import ast
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ugb"


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree):
    """Every import statement in the module, at any depth."""
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _sibling_edges(trees):
    """module -> the sibling modules it imports relatively."""
    edges = {}
    for name, tree in trees.items():
        targets = set()
        for node in _imports(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module:
                targets.add(node.module.split(".")[0])
            else:  # from . import x: x is a module, or a name in __init__
                targets.update(a.name if a.name in trees else "__init__" for a in node.names)
        edges[name] = sorted(targets)
    return edges


def test_intra_package_imports_are_acyclic():
    edges = _sibling_edges(_trees())
    # the scan sees both import forms, so an empty graph cannot pass
    assert "textio" in edges["cli"] and "poly" in edges["division"]
    try:
        TopologicalSorter(edges).prepare()
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def _late_imports(tree):
    """Line numbers of the imports after the module's first top-level
    ``def`` or ``class``."""
    defs = [node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return sorted(node.lineno for node in _imports(tree) if defs and node.lineno > defs[0])


def test_imports_precede_the_first_definition():
    assert _late_imports(ast.parse("import re\nclass C:\n    import os\nimport sys")) == [3, 4]
    late = [f"{name}.py:{line}" for name, tree in _trees().items() for line in _late_imports(tree)]
    assert not late, late


def _unused_imports(tree):
    """Names the module imports, ``__future__`` features aside, that no
    expression in it reads, as "name (line n)"."""
    bound = {}
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_modules_read_every_name_they_import():
    # the scan must see a stale name, so an empty result cannot pass by default
    assert _unused_imports(ast.parse("import re\nfrom x import a, b as c\nc(re)")) == ["a (line 2)"]
    unused = [
        f"{name}.py: {entry}"
        for name, tree in _trees().items()
        if name != "__init__"
        for entry in _unused_imports(tree)
    ]
    assert not unused, unused


def _asserts(tree):
    """Line numbers of the module's ``assert`` statements, at any depth."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_modules_hold_no_assert_statements():
    # python -O strips asserts, so a soundness check must raise instead
    assert _asserts(ast.parse("def f(x):\n    if x:\n        assert x, 'no'\n")) == [3]
    found = [f"{name}.py:{line}" for name, tree in _trees().items() for line in _asserts(tree)]
    assert not found, found


def _fresh_import(*modules):
    """The non-standard-library top-level modules, and those of
    ``dataclasses`` and ``inspect``, that a fresh interpreter with
    site-packages off (``-S``) has loaded after importing ``modules``,
    as the text of two sorted lists."""
    probe = (
        "import sys; sys.path[:0] = sys.argv[1:]; "
        f"import {', '.join(modules)}; "
        "top = {name.split('.')[0] for name in sys.modules}; "
        "print(sorted(top - set(sys.stdlib_module_names) - {'ugb', '__main__'}), "
        "sorted({'dataclasses', 'inspect'} & top))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(PACKAGE.parent), str(Path(__file__).parent)],
        capture_output=True, text=True, check=True,
    )
    return run.stdout.strip()


def test_cli_import_loads_no_introspection_modules():
    # the engine uses only the standard library, and records are
    # namedtuple subclasses, so the CLI's start-up cost holds no
    # dataclasses machinery, nor the inspect module it pulls in
    assert _fresh_import("ugb.cli", "helpers", "dataclasses") == "['helpers'] ['dataclasses', 'inspect']"
    assert _fresh_import("ugb.cli") == "[] []"
