"""A stdlib stand-in for a linter's dead-code rules, run over the package
source: no function parameter that its body never reads, and no
module-level import that its module never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "eegx"
MODULES = sorted(SRC.glob("*.py"))


def _loaded(node: ast.AST) -> set[str]:
    """Every name read anywhere under ``node``, nested scopes included."""
    return {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``<function>:<line>: <parameter>`` for each named parameter that its
    function never reads; ``self``, names starting with ``_`` and
    ``*args``/``**kwargs`` are exempt."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        read = set().union(*map(_loaded, fn.body if isinstance(fn.body, list) else [fn.body]))
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            if arg.arg != "self" and not arg.arg.startswith("_") and arg.arg not in read:
                found.append(f"{getattr(fn, 'name', 'lambda')}:{fn.lineno}: {arg.arg}")
    return found


def _unused_imports(tree: ast.Module) -> list[str]:
    """Each name that a module-level import binds and the module never
    reads; ``from __future__`` imports are exempt."""
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [alias.asname or alias.name for alias in stmt.names]
    read = _loaded(tree)
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_finds_both_kinds():
    tree = ast.parse(
        "import os\n"
        "from json import dumps, loads as load\n"
        "def f(a, b, _c, *args, **kwargs):\n"
        "    def g(d):\n"
        "        return a\n"
        "    return g, load, (lambda e, f: f)\n"
    )
    assert _unread_parameters(tree) == ["f:3: b", "g:4: d", "lambda:6: e"]
    assert _unused_imports(tree) == ["os", "dumps"]
