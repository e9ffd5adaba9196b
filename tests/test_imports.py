"""Every import, every private module-level name and every method in
``src/codeforest`` is used, and no function there is recursive.

A stand-in for a linter's unused-name checks, written with ``ast``. An
import counts as used when the module reads it anywhere (annotations
included) or lists it in ``__all__``; ``from __future__`` imports are
directives, not names. A module-level ``_name`` (assigned, or a
function or class) counts as used when its own module reads it. A
method defined on a class, dunders aside, counts as used when some
module of the package reads it as an attribute (``x.name``). No function
or method reaches itself through calls, so no input's depth can exhaust
the interpreter's stack. No two functions or methods have the same body,
so each rule is written once. No parameter is given the same constant by
every call, so no parameter is a knob that buys nothing.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "codeforest"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # Its string entries; a computed one (``*_HOME``) is read as a name.
            used.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from .a import b, c as d\n"
        "from .e import f\n"
        "__all__ = ['f']\n"
        "print(os.sep, d)\n"
    )
    assert unused_imports(source) == ["line 2: osp", "line 3: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_the_check_finds_an_unread_private_name():
    source = (
        "_A, _B = 1, 2\n"
        "_C: int = _A\n"
        "__all__ = []\n"
        "def _f():\n"
        "    _local = 3\n"
        "    return _C\n"
        "class _K:\n"
        "    _attr = 1\n"
        "print(_f())\n"
    )
    assert unread_private_names(source) == ["line 1: _B", "line 7: _K"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def unread_methods(sources: dict[str, str]) -> list[str]:
    """``module:line: Class.method`` for each method that no source reads."""
    defined: dict[str, list[str]] = {}
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("__")):
                        defined.setdefault(item.name, []).append(
                            f"{module}:{item.lineno}: {node.name}.{item.name}")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [where for name, places in defined.items() if name not in read for where in places]


def test_the_check_finds_an_unread_method():
    sources = {
        "a.py": (
            "class K:\n"
            "    def __init__(self):\n"
            "        self.used()\n"
            "    def used(self):\n"
            "        self.gone = 1\n"
            "    def gone(self):\n"
            "        pass\n"
            "    def spare(self):\n"
            "        pass\n"
        ),
        "b.py": "def f(k):\n    return k.called\n",
        "c.py": "class L:\n    def called(self):\n        pass\n",
    }
    assert unread_methods(sources) == ["a.py:6: K.gone", "a.py:8: K.spare"]


def test_no_unread_methods():
    sources = {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
               for path in MODULES}
    assert unread_methods(sources) == []


def _own_nodes(function):
    """The nodes of ``function``'s body, nested function and class bodies left out."""
    todo = list(function.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def recursive_functions(source: str) -> list[str]:
    """``line N: name`` for each function that reaches itself through calls.

    A call by plain name (``f()``) goes to every function of that name not
    defined in a class, nested ones included; ``self.f()`` goes to the
    method ``f`` of the caller's class. Calls made in a nested function
    are its own, not those of the function around it.
    """
    tree = ast.parse(source)
    owner = {item: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}
    calls: dict[str, set[str]] = {}
    lines: dict[str, int] = {}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(function)
        key = f"{cls}.{function.name}" if cls else function.name
        lines.setdefault(key, function.lineno)
        callees = calls.setdefault(key, set())
        for node in _own_nodes(function):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    callees.add(func.id)
                elif (cls and isinstance(func, ast.Attribute)
                      and isinstance(func.value, ast.Name) and func.value.id == "self"):
                    callees.add(f"{cls}.{func.attr}")
    found = []
    for key in sorted(calls, key=lines.__getitem__):
        reached: set[str] = set()
        todo = list(calls[key])
        while todo:
            callee = todo.pop()
            if callee in calls and callee not in reached:
                reached.add(callee)
                todo.extend(calls[callee])
        if key in reached:
            found.append(f"line {lines[key]}: {key}")
    return found


def test_the_check_finds_a_recursive_function():
    source = (
        "def a():\n"
        "    b()\n"
        "def b():\n"
        "    return a() if x else d()\n"
        "def d():\n"
        "    print(other.d)\n"
        "class K:\n"
        "    def f(self):\n"
        "        self.g()\n"
        "    def g(self):\n"
        "        self.f()\n"
        "    def h(self):\n"
        "        other.h()\n"
        "def outer():\n"
        "    def inner(n):\n"
        "        return inner(n - 1)\n"
        "    return inner(3)\n"
        "def e(n):\n"
        "    return [e(n - 1)]\n"
    )
    assert recursive_functions(source) == [
        "line 1: a", "line 3: b", "line 8: K.f", "line 10: K.g", "line 15: inner", "line 18: e",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_recursive_functions(path):
    assert recursive_functions(path.read_text(encoding="utf-8")) == []


def copied_bodies(sources: dict[str, str]) -> list[list[str]]:
    """``module:line: name`` of the functions and methods that share a
    body, one list per body that more than one has. Bodies compare as
    AST dumps, docstring dropped, so names, layout and comments aside."""
    places: dict[str, list[str]] = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {item: f"{node.name}." for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                places.setdefault(ast.dump(ast.Module(body, [])), []).append(
                    f"{module}:{node.lineno}: {owner.get(node, '')}{node.name}")
    return [where for where in places.values() if len(where) > 1]


def test_the_check_finds_a_copied_body():
    sources = {
        "a.py": (
            "def f(x):\n"
            "    return x + 1\n"
            "class K:\n"
            "    def g(self, y):\n"
            "        'Adds one.'\n"
            "        return x + 1  # the same\n"
            "    def h(self):\n"
            "        return x - 1\n"
        ),
        "b.py": "def f(x):\n    return x - 1\ndef k(x):\n    return x + 2\n",
    }
    assert copied_bodies(sources) == [["a.py:1: f", "a.py:4: K.g"], ["a.py:7: K.h", "b.py:1: f"]]


def test_no_copied_bodies():
    sources = {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
               for path in MODULES}
    assert copied_bodies(sources) == []


def _constant(node) -> str | None:
    """A literal's source, or a name in capitals (``KIND_IDENTIFIER``,
    also as ``lexer.KIND_IDENTIFIER``); None for any other expression."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        return name if name.isupper() else None
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return ast.unparse(node)


def constant_arguments(sources: dict[str, str]) -> list[str]:
    """``module:line: name(param=value)`` for each parameter of a function
    or method with two calls or more to which every call passes the same
    constant. A call ``f(...)`` or ``x.f(...)`` counts for the one
    function or method named ``f``; a method's first parameter is its
    receiver. Dunders, names defined twice and functions with a call that
    passes ``*`` or ``**`` arguments are left out."""
    defs: dict[str, list[tuple[str, list[str]]]] = {}
    calls: dict[str, list[ast.Call]] = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {item: f"{node.name}." for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                params = positional[node in owner:] + [a.arg for a in args.kwonlyargs]
                defs.setdefault(node.name, []).append(
                    (f"{module}:{node.lineno}: {owner.get(node, '')}{node.name}", params))
            elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    found = []
    for name, places in defs.items():
        sites = calls.get(name, [])
        if (name.startswith("__") or len(places) > 1 or len(sites) < 2
                or any(isinstance(arg, ast.Starred) for call in sites for arg in call.args)
                or any(k.arg is None for call in sites for k in call.keywords)):
            continue
        where, params = places[0]
        given = [dict(zip(params, call.args)) | {k.arg: k.value for k in call.keywords}
                 for call in sites]
        for param in params:
            passed = {_constant(args[param]) if param in args else None for args in given}
            if len(passed) == 1 and None not in passed:
                found.append(f"{where}({param}={passed.pop()})")
    return found


def test_the_check_finds_a_constant_argument():
    sources = {
        "a.py": (
            "KIND = 'k'\n"
            "def f(x, kind, flag=False):\n"
            "    return g(x, 2) + g(x, n=2)\n"
            "def g(x, n):\n"
            "    return x\n"
            "class K:\n"
            "    def at(self, kind):\n"
            "        return f(1, KIND) + f(2, kind=KIND, flag=True)\n"
            "    def once(self, n):\n"
            "        return self.at(KIND)\n"
            "    def spread(self, n):\n"
            "        return 0\n"
            "def twice(n):\n"
            "    return 1\n"
        ),
        "b.py": (
            "def h(k, rest):\n"
            "    return (k.at(a.KIND) + f(3, KIND, flag=k) + k.once(0)\n"
            "            + k.spread(1) + k.spread(*rest) + twice(1) + twice(1))\n"
            "def twice(n):\n"
            "    return 2\n"
        ),
    }
    assert constant_arguments(sources) == [
        "a.py:2: f(kind=KIND)", "a.py:4: g(n=2)", "a.py:7: K.at(kind=KIND)",
    ]


def test_no_constant_arguments():
    sources = {path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
               for path in MODULES}
    assert constant_arguments(sources) == []
