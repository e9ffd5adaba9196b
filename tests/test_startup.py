"""What each command loads: numpy never, and only the layers it runs.

codeforest never loads numpy: not on import, not in ``analyze``, not in
a render to any format. ``import codeforest.cli`` loads the CLI alone;
``analyze`` loads the parser and the model but no scene layer; each
render loads the scene layers and its own writer, no other.

Each check runs in a fresh interpreter, as the ``codeforest`` command
does, and reads ``sys.modules`` at its end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

SRC = Path(__file__).parent.parent / "src"

# Print every loaded module's name, on one line.
_PRINT_MODULES = "print(' '.join(sorted(sys.modules)))"

_IMPORT_CLI = "import sys, codeforest.cli\n" + _PRINT_MODULES

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
""" + _PRINT_MODULES

PIPELINE = {f"codeforest.{name}" for name in
            ("parser", "lexer", "model", "pipeline", "config", "layout", "geometry")}
SCENE_LAYERS = {"codeforest.config", "codeforest.layout", "codeforest.geometry"}
WRITERS = {fmt: f"codeforest.exporters.{fmt}" for fmt in ("gltf", "obj", "mel", "report")}


def _loaded(code: str, *args: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Command -> (modules it loaded, paths it was to write); each runs once."""
    out = tmp_path_factory.mktemp("startup")
    cache: dict[str, tuple[set[str], list[Path]]] = {}

    def run(command: str):
        if command not in cache:
            root = str(FIXTURES / "calls")
            if command == "import":
                cache[command] = _loaded(_IMPORT_CLI), []
            elif command == "analyze":
                report = out / "report.json"
                cache[command] = _loaded(_RUN_CLI, "analyze", root,
                                         "--report", str(report)), [report]
            else:
                scene = out / f"forest.{command}"
                cache[command] = _loaded(_RUN_CLI, "render", root, "-o", str(scene),
                                         "--format", command), [scene]
        return cache[command]

    return run


def test_import_leaves_numpy_out(runs):
    modules, _ = runs("import")
    assert "numpy" not in modules


def test_analyze_leaves_numpy_out(runs):
    modules, written = runs("analyze")
    assert "numpy" not in modules
    assert all(path.is_file() for path in written)


@pytest.mark.parametrize("fmt", ["gltf", "obj", "mel"])
def test_render_leaves_numpy_out(fmt, runs):
    modules, written = runs(fmt)
    assert "numpy" not in modules
    assert all(path.is_file() for path in written)


def test_import_loads_only_the_cli(runs):
    modules, _ = runs("import")
    assert not modules & PIPELINE
    assert not {m for m in modules if m.startswith("codeforest.exporters.")}
    assert not modules & {"dataclasses", "hashlib"}
    assert {"codeforest", "codeforest.cli", "codeforest.errors"} <= modules


def test_analyze_loads_no_scene_layer(runs):
    modules, _ = runs("analyze")
    assert not modules & SCENE_LAYERS
    assert modules & set(WRITERS.values()) == {WRITERS["report"]}
    assert PIPELINE - SCENE_LAYERS <= modules


@pytest.mark.parametrize("fmt", ["gltf", "obj", "mel"])
def test_render_loads_only_its_writer(fmt, runs):
    modules, _ = runs(fmt)
    assert modules & set(WRITERS.values()) == {WRITERS[fmt]}
    assert PIPELINE <= modules
