"""Every name a module imports is used in that module.

The check parses each module of the package and of the tests with
``ast``.  A name counts as used when it occurs anywhere in the module
outside its import statements, or inside a string annotation such as
``"Quasitrain | Train"``.  ``__init__.py`` re-exports what it imports
and is skipped, as are ``__future__`` imports.

The benchmark's tracer (``perfbench/spans.py``) wraps functions of the
package by name and skips a name it cannot find, so a last check keeps
every traced name bound in its module.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "partite", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    """Annotations of arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        ann = (getattr(node, "annotation", None)
               or getattr(node, "returns", None))
        if ann is not None:
            yield ann


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never uses."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname
                                or alias.name.partition(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value))
                         if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_plain_and_annotated_uses():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Any, Iterator\n"
              "from m import A, B as C\n"
              "def f(x: 'A | None') -> Any:\n"
              "    return os.path\n")
    assert unused_imports(source) == ["Iterator", "C"]


def test_every_traced_name_is_bound_in_its_module():
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    home = {name: module for module, names in spans.LAYERS.values()
            for name in names}
    assert set(spans.COUNTERS) <= set(home)
    unbound = [f"{module}.{name}" for name, module in home.items()
               if not callable(getattr(importlib.import_module(
                   f"partite.{module}"), name, None))]
    assert unbound == []
