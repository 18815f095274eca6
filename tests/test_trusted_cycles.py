"""Only the closing walks build cycles without canonicalising them.

``CycleOfCopies._canonical`` trusts its steps to be in canonical form
already, which ``copies._closing_walks`` ensures by numbering members
and connectors in key order.  Any other caller would hand over cycles
that compare unequal to the same cycle written from another start.  The
check parses each module of the package with ``ast`` and names every
use of the attribute ``_canonical`` outside ``_closing_walks``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "partite").glob("*.py"))
TRUSTED = "_closing_walks"


def untrusted_uses(source: str) -> list[str]:
    """``function:line`` of each ``x._canonical`` outside the closing
    walks; module level reads ``<module>``."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if (isinstance(child, ast.Attribute)
                    and child.attr == "_canonical" and where != TRUSTED):
                found.append(f"{where}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_closing_walks_skip_canonicalisation(path):
    assert untrusted_uses(path.read_text()) == []


def test_the_check_sees_untrusted_uses():
    source = ("def _closing_walks(system):\n"
              "    return system._cycle._canonical(())\n"
              "def f(steps):\n"
              "    make = BigCycle._canonical\n"
              "    return CycleOfCopies._canonical(steps), make(steps)\n"
              "cycle = CycleOfCopies._canonical(())\n")
    assert untrusted_uses(source) == ["f:4", "f:5", "<module>:6"]
