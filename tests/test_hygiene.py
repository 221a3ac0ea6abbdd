"""Lint by test: no module imports a name it never uses, and `src` holds no
code that only tests use.

Every module under `src/gdpacer` (apart from the package `__init__`, whose
imports are its re-exports), `tests/` and `scripts/` is parsed, and each name
an import statement binds must be read somewhere in the module.

Each top-level function, class and constant of a package module must be
read outside its own definition somewhere in `src/gdpacer`, `scripts/` or
`perfbench/`, or be exported in `gdpacer.__all__`.  A read is a loaded name,
an attribute or an imported name; names are matched by name alone, so a
read of a same-named definition elsewhere also counts.

Each parameter default of a top-level function of a package module must
be overridden by some call of the function in `src/gdpacer`, `scripts/` or
`perfbench/`, if it has any call there: a default that no caller sets is a
constant, not an option.  A call overrides a default when a positional
argument or a keyword reaches it, and overrides every default when it
passes `*args` or `**kwargs`.  Calls are matched by the name called, bare
or as an attribute.
"""

import ast
import functools
from pathlib import Path

import pytest

import gdpacer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "gdpacer").glob("*.py") if p.name != "__init__.py")
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py"))
                 + list((ROOT / "scripts").glob("*.py")))
READERS = PACKAGE + sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


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


def defined(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class, or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def names_read(source: str) -> set[str]:
    """The names the module reads, each outside the statement that defines it."""
    out = set()
    for stmt in ast.parse(source).body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
            elif isinstance(node, ast.alias):
                here.add(node.name)
        out |= here - defined(stmt)
    return out


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """The module's top-level definitions whose names are not in `read`."""
    return [f"line {stmt.lineno}: {name}" for stmt in ast.parse(source).body
            for name in sorted(defined(stmt) - read)]


@functools.cache
def package_reads() -> frozenset[str]:
    read = set(gdpacer.__all__)
    for path in READERS:
        read |= names_read(path.read_text(encoding="utf-8"))
    return frozenset(read)


def test_unread_definitions_are_found():
    lib = ("A = 1\nB, C = A, 2\n\ndef f(n):\n    return f(n - 1)\n\n"
           "class K:\n    pass\n\ndef g():\n    return K()\n")
    read = names_read(lib) | names_read("import lib\nlib.g()\n") | {"C"}
    assert unread_definitions(lib, read) == ["line 2: B", "line 4: f"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_test_only_definitions(path):
    assert unread_definitions(path.read_text(encoding="utf-8"), package_reads()) == []


def defaulted_parameters(source: str) -> dict[str, tuple[list[str], list[str]]]:
    """Each top-level function's positional parameters, in order, and its
    parameters that have a default."""
    out = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = stmt.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            with_default = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out[stmt.name] = (positional, with_default)
    return out


def calls_by_name(sources) -> dict[str, list[ast.Call]]:
    """The calls in `sources`, keyed by the name called."""
    out: dict[str, list[ast.Call]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def unset_defaults(source: str, calls: dict[str, list[ast.Call]]) -> list[str]:
    """The defaults of the module's called functions that no call overrides."""
    out = []
    for name, (positional, with_default) in defaulted_parameters(source).items():
        unset = set(with_default) if name in calls else set()
        for call in calls.get(name, ()):
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(k.arg is None for k in call.keywords):
                unset = set()
            unset -= set(positional[:len(call.args)]) | {k.arg for k in call.keywords}
        out += [f"{name}({p})" for p in with_default if p in unset]
    return out


def test_unset_defaults_are_found():
    lib = ("def f(a, b=1, *, c=2):\n    pass\n\ndef g(x=0, y=0):\n    pass\n\n"
           "def h(z=0):\n    pass\n\ndef k(w=0):\n    pass\n")
    calls = calls_by_name(["f(1, 2)\ng(y=3)\nobj.h(*args)\n", "g(**opts)\nf(0)\n"])
    assert unset_defaults(lib, calls) == ["f(c)"]
    assert unset_defaults(lib, calls_by_name(["g(1)\nk()\n"])) == ["g(y)", "k(w)"]


@functools.cache
def package_calls() -> dict[str, list[ast.Call]]:
    return calls_by_name(path.read_text(encoding="utf-8") for path in READERS)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_default_is_set_by_a_caller(path):
    assert unset_defaults(path.read_text(encoding="utf-8"), package_calls()) == []
