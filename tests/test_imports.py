"""The package's import structure: the intra-package ``from .x import``
graph has no cycle (its layers run words, rings, poly, division, spolys,
quotient, pbw, with textio and cli on top), and every import sits in a
module's header, before its first top-level ``def`` or ``class``.  A
late or function-level import is how a cycle gets hidden, so both are
rejected.  Every module but ``__init__`` (which re-exports) reads each
name it imports, so a deletion leaves no stale import behind.  A fresh
``import ugb.cli`` loads neither ``dataclasses`` nor ``inspect``, which
would dominate the CLI's start-up."""

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


def test_imports_precede_the_first_definition():
    late = []
    for name, tree in _trees().items():
        defs = [node.lineno for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        if not defs:
            continue
        late += [f"{name}.py:{node.lineno}" for node in _imports(tree) if node.lineno > defs[0]]
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


def test_cli_import_loads_no_introspection_modules():
    # records are namedtuple subclasses, so the CLI's start-up cost holds
    # no dataclasses machinery, nor the inspect module it pulls in
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ugb.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == "[]", run.stdout
