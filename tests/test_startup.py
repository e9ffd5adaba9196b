"""codeforest never loads numpy: not on import, not in ``analyze``,
not in a render to any format.

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

# ``python -m codeforest.cli ARGS``, then whether numpy was loaded.
_RUN_CLI = """
import runpy, sys
try:
    runpy.run_module("codeforest.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print("numpy" in sys.modules)
"""


def _numpy_loaded(code: str, *args: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return {"True": True, "False": False}[done.stdout.splitlines()[-1]]


def test_import_leaves_numpy_out():
    assert not _numpy_loaded("import sys, codeforest.cli\nprint('numpy' in sys.modules)")


def test_analyze_leaves_numpy_out(tmp_path):
    report = tmp_path / "report.json"
    assert not _numpy_loaded(_RUN_CLI, "analyze", str(FIXTURES / "calls"),
                             "--report", str(report))
    assert report.is_file()


@pytest.mark.parametrize("fmt", ["gltf", "obj", "mel"])
def test_render_leaves_numpy_out(fmt, tmp_path):
    out = tmp_path / f"forest.{fmt}"
    assert not _numpy_loaded(_RUN_CLI, "render", str(FIXTURES / "calls"),
                             "-o", str(out), "--format", fmt)
    assert out.is_file()
