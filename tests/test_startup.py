"""What each command loads: numpy never, and only the layers it runs.

codeforest never loads numpy: not on import, not in ``analyze``, not in
a render to any format. ``import codeforest.cli`` loads the CLI alone;
``analyze`` loads the parser and the model but no scene layer; each
render loads the scene layers and its own writer, no other. The only
codeforest dataclasses any command creates are ``parser.ClassDecl`` and
``parser.MethodDecl``; every other record is a plain ``__slots__`` class.

Each check runs in a fresh interpreter, as the ``codeforest`` command
does, and reads ``sys.modules`` and the live classes at its end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

SRC = Path(__file__).parent.parent / "src"

# Print the codeforest classes that are dataclasses, then every loaded
# module's name, each list on one line.
_PRINT_LOADED = """
import gc
print(' '.join(sorted({f'{c.__module__}.{c.__qualname__}' for c in gc.get_objects()
                       if isinstance(c, type) and '__dataclass_fields__' in vars(c)
                       and str(c.__module__).startswith('codeforest')})))
print(' '.join(sorted(sys.modules)))
"""

_IMPORT_CLI = "import sys, codeforest.cli\n" + _PRINT_LOADED

# ``python -m codeforest.cli ARGS``, then the loaded modules. The CLI
# leaves through ``os._exit``, which would end the process before the
# print; here it raises ``SystemExit`` instead.
_RUN_CLI = """
import os, runpy, sys
os._exit = sys.exit
try:
    runpy.run_module("codeforest.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
""" + _PRINT_LOADED

PIPELINE = {f"codeforest.{name}" for name in
            ("parser", "lexer", "model", "pipeline", "config", "layout", "geometry")}
SCENE_LAYERS = {"codeforest.config", "codeforest.layout", "codeforest.geometry"}
WRITERS = {fmt: f"codeforest.exporters.{fmt}" for fmt in ("gltf", "obj", "mel", "report")}


def _loaded(code: str, *args: str) -> tuple[set[str], set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    *_, records, modules = done.stdout.splitlines()
    return set(modules.split()), set(records.split())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Command -> (modules it loaded, paths it was to write, its
    dataclasses); each runs once."""
    out = tmp_path_factory.mktemp("startup")
    cache: dict[str, tuple[set[str], list[Path], set[str]]] = {}

    def run(command: str):
        if command not in cache:
            root = str(FIXTURES / "calls")
            if command == "import":
                args, written = (), []
            elif command == "analyze":
                written = [out / "report.json"]
                args = ("analyze", root, "--report", str(written[0]))
            else:
                written = [out / f"forest.{command}"]
                args = ("render", root, "-o", str(written[0]), "--format", command)
            modules, records = _loaded(_RUN_CLI if args else _IMPORT_CLI, *args)
            cache[command] = modules, written, records
        return cache[command]

    return run


def test_import_leaves_numpy_out(runs):
    modules, _, _ = runs("import")
    assert "numpy" not in modules


def test_analyze_leaves_numpy_out(runs):
    modules, written, _ = runs("analyze")
    assert "numpy" not in modules
    assert all(path.is_file() for path in written)


@pytest.mark.parametrize("fmt", ["gltf", "obj", "mel"])
def test_render_leaves_numpy_out(fmt, runs):
    modules, written, _ = runs(fmt)
    assert "numpy" not in modules
    assert all(path.is_file() for path in written)


def test_import_loads_only_the_cli(runs):
    modules, _, _ = runs("import")
    assert not modules & PIPELINE
    assert not {m for m in modules if m.startswith("codeforest.exporters.")}
    assert not modules & {"dataclasses", "hashlib"}
    assert {"codeforest", "codeforest.cli", "codeforest.errors"} <= modules


def test_analyze_loads_no_scene_layer(runs):
    modules, _, _ = runs("analyze")
    assert not modules & SCENE_LAYERS
    assert modules & set(WRITERS.values()) == {WRITERS["report"]}
    assert PIPELINE - SCENE_LAYERS <= modules


@pytest.mark.parametrize("fmt", ["gltf", "obj", "mel"])
def test_render_loads_only_its_writer(fmt, runs):
    modules, _, _ = runs(fmt)
    assert modules & set(WRITERS.values()) == {WRITERS[fmt]}
    assert PIPELINE <= modules


@pytest.mark.parametrize("command", ["import", "analyze", "gltf", "obj", "mel"])
def test_only_the_two_traced_parser_records_are_dataclasses(command, runs):
    # bench/tracing.py copies these two with dataclasses.replace.
    _, _, records = runs(command)
    expected = {"codeforest.parser.ClassDecl", "codeforest.parser.MethodDecl"}
    assert records == (set() if command == "import" else expected)
