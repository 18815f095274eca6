"""Canonical sorts go through the two sort helpers of ``core``.

``core.sort_vertices`` and ``core._sort_edges`` sort natively when every
vertex is exactly an int and by ``vkey``/``ekey`` otherwise.  A sort
elsewhere that passes ``key=vkey`` or ``key=ekey`` itself builds a key
tuple per element whatever the vertices are.  The check parses each
module of the package with ``ast`` and names every call with such a key
argument outside the two helpers.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "partite").glob("*.py"))
HELPERS = {"sort_vertices", "_sort_edges"}
KEYS = {"vkey", "ekey"}


def keyed_sorts(source: str) -> list[str]:
    """``function:line`` of each call passing ``key=vkey`` or
    ``key=ekey`` outside the helpers; module level reads ``<module>``."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and where not in HELPERS and any(
                    kw.arg == "key" and isinstance(kw.value, ast.Name)
                    and kw.value.id in KEYS for kw in child.keywords):
                found.append(f"{where}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_canonical_sorts_use_the_helpers(path):
    assert keyed_sorts(path.read_text()) == []


def test_the_check_sees_keyed_sorts():
    source = ("def sort_vertices(vs):\n"
              "    return sorted(vs, key=vkey)\n"
              "def f(vs, es):\n"
              "    vs.sort(key=vkey)\n"
              "    g = lambda: sorted(es, key=ekey)\n"
              "    return sorted(vs, key=lambda v: vkey(v)),"
              " min(es, key=ekey)\n"
              "order = sorted(xs, key=vkey)\n")
    assert keyed_sorts(source) == ["f:4", "f:5", "f:6", "<module>:7"]
