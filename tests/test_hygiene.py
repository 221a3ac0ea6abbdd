"""Lint by test: no module imports a name it never uses.

Every module under `src/gdpacer` (apart from the package `__init__`, whose
imports are its re-exports), `tests/` and `scripts/` is parsed, and each name
an import statement binds must be read somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "gdpacer").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "scripts").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names that the module's import statements bind and nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, sys as system\nimport a.b\n"
              "from x import y, z as w\nsystem.exit(a.b(w))\n")
    assert unused_imports(source) == ["line 2: os", "line 4: y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
