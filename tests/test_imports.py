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
so each rule is written once.
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
