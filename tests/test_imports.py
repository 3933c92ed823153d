"""The package's import structure: the intra-package ``from .x import``
graph has no cycle (its layers run words, rings, poly, division, spolys,
quotient, pbw, with textio and cli on top), and every import sits in a
module's header, before its first top-level ``def`` or ``class``.  A
late or function-level import is how a cycle gets hidden, so both are
rejected."""

import ast
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
