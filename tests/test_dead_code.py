"""A stdlib stand-in for a linter's dead-code rules, run over the package
source: no function parameter that its body never reads, no
module-level import that its module never uses, and no module-level
private name that the package never uses outside its definition (a
private helper kept alive only by its tests). One more rule keeps the
promise that every output is written atomically: no function but
``signal_io.write_text_atomic`` makes a call that can write a file."""

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


def _defined(stmt: ast.stmt) -> set[str]:
    """The private names (``_x``, not ``__x__``) a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _referenced(stmt: ast.stmt) -> set[str]:
    """Every name a statement reads, as a ``Name``, an ``Attribute`` or an
    imported alias."""
    found = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def _unused_private_names(trees: list[ast.Module]) -> list[str]:
    """Each module-level private name that no statement of ``trees``
    references, the statements that define that name aside."""
    statements = [stmt for tree in trees for stmt in tree.body]
    defined = dict.fromkeys(name for stmt in statements for name in sorted(_defined(stmt)))
    return [
        name
        for name in defined
        if not any(name in _referenced(s) for s in statements if name not in _defined(s))
    ]


#: (module, function) calls that write a file; ``open`` and the
#: ``write_text``/``write_bytes`` methods are checked apart
_WRITE_CALLS = {("os", "fdopen"), ("tempfile", "mkstemp"), ("os", "replace"), ("os", "rename")}


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` can write a file: ``open`` with a mode that is not
    a constant read mode, a ``_WRITE_CALLS`` call, or ``.write_text`` or
    ``.write_bytes`` on anything."""
    f = call.func
    if isinstance(f, ast.Name) and f.id == "open":
        modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r")
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))
    if isinstance(f, ast.Attribute):
        module = f.value.id if isinstance(f.value, ast.Name) else None
        return f.attr in ("write_text", "write_bytes") or (module, f.attr) in _WRITE_CALLS
    return False


def _file_writes(tree: ast.Module) -> list[str]:
    """``<function>:<line>: <callee>`` for each call that can write a file,
    named by its innermost enclosing function (``<module>`` outside any)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and _writes(node):
            found.append(f"{scope}:{node.lineno}: {ast.unparse(node.func)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_every_private_name_is_used():
    trees = [ast.parse(path.read_text(), str(path)) for path in MODULES]
    assert _unused_private_names(trees) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_write_text_atomic_writes_files(path):
    found = _file_writes(ast.parse(path.read_text(), str(path)))
    if path.name == "signal_io.py":
        found = [f for f in found if not f.startswith("write_text_atomic:")]
    assert found == []


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


def test_the_guard_finds_unused_private_names():
    trees = [
        ast.parse(
            "_LIMIT = 3\n"
            "_TABLE = [1]\n"
            "_TABLE = _TABLE * 2\n"
            "def _helper(x):\n"
            "    return _LIMIT + x\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Spare:\n"
            "    pass\n"
            "__all__ = ['f']\n"
        ),
        ast.parse("from a import _helper\nimport a\nprint(a._TABLE)\n"),
    ]
    assert _unused_private_names(trees) == ["_recursive", "_Spare"]


def test_the_guard_finds_file_writes():
    tree = ast.parse(
        "import os, tempfile\n"
        "from pathlib import Path\n"
        "def f(p, m):\n"
        "    Path('x').write_text('y')\n"
        "    open(p), open(p, 'rb'), open(p, mode='r', encoding='utf-8')\n"
        "    open(p, 'a'), open(p, mode='r+'), open(p, m)\n"
        "    p.write_bytes(b''), os.replace(p, p), 'a'.replace('a', 'b')\n"
        "def write_text_atomic(p):\n"
        "    fd, tmp = tempfile.mkstemp()\n"
        "    os.fdopen(fd, 'w')\n"
        "    os.rename(tmp, p)\n"
        "open('log', 'w')\n"
    )
    assert _file_writes(tree) == [
        "f:4: Path('x').write_text",
        "f:6: open",
        "f:6: open",
        "f:6: open",
        "f:7: p.write_bytes",
        "f:7: os.replace",
        "write_text_atomic:9: tempfile.mkstemp",
        "write_text_atomic:10: os.fdopen",
        "write_text_atomic:11: os.rename",
        "<module>:12: open",
    ]
