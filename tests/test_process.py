"""The ``codeforest`` process: collector off for the command, then flush
and hard exit.

``cli.main`` runs its command with the cyclic garbage collector off and
gives the caller back the collector state it found. ``cli.run``, the
process entry, flushes standard output and standard error and leaves
through ``os._exit``. The subprocess checks here run
``python -m codeforest.cli`` as a user would; the in-process checks
call ``main``, as the other CLI tests do.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import synth
from codeforest import pipeline
from codeforest.cli import main
from codeforest.errors import ConfigSyntaxError

from conftest import FIXTURES

SRC = Path(__file__).parent.parent / "src"
TWO_CLASSES = str(FIXTURES / "two_classes")
SUMMARY = "classes=2 methods=5 loc=28 inheritance=1\n"


def _env() -> dict[str, str]:
    """This environment with codeforest importable and standard output
    buffered, as it is by default, so that the exit has a flush to do."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _codeforest(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "codeforest.cli", *args], env=_env(),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def test_summary_reaches_a_regular_file(tmp_path):
    # A regular file is block-buffered, so without the flush before
    # os._exit the line would be lost.
    out = tmp_path / "out.txt"
    with open(out, "w") as stdout:
        done = _codeforest("analyze", TWO_CLASSES, stdout=stdout)
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_text() == SUMMARY


def test_render_writes_its_file_and_line(tmp_path):
    scene = tmp_path / "forest.gltf"
    done = _codeforest("render", TWO_CLASSES, "-o", str(scene), "--format", "gltf")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"wrote {scene}\n", "")
    assert scene.read_text(encoding="utf-8").endswith("}\n")


@pytest.mark.parametrize("case, code", [
    ("cycle", 1), ("missing root", 2), ("bad config", 2),
])
def test_exit_codes_and_errors_reach_the_process(tmp_path, case, code):
    if case == "cycle":
        args = ["analyze", str(FIXTURES / "cycle")]
    elif case == "missing root":
        args = ["analyze", str(tmp_path / "nope")]
    else:
        cfg = tmp_path / "render.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        args = ["render", TWO_CLASSES, "-o", str(tmp_path / "x.gltf"),
                "--format", "gltf", "--config", str(cfg)]
    done = _codeforest(*args)
    assert done.returncode == code
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_usage_error_exits_two():
    done = _codeforest("render", TWO_CLASSES)
    assert done.returncode == 2
    assert "required" in done.stderr


def _closed_pipe_exit(argv: list[str]) -> int:
    """Exit code of ``argv`` whose standard output is a pipe that no one
    reads: its read end is closed before the process starts."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(argv, env=_env(), stdout=write, stderr=subprocess.DEVNULL,
                              timeout=60).returncode
    finally:
        os.close(write)


def test_closed_stdout_exits_as_a_plain_print_does():
    plain = _closed_pipe_exit([sys.executable, "-c", "print('x')"])
    assert plain != 0
    assert _closed_pipe_exit(
        [sys.executable, "-m", "codeforest.cli", "analyze", TWO_CLASSES]) == plain


@pytest.fixture
def collector():
    """Restore the collector's state after the test, whatever it did."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["caller collects", "caller does not"])
@pytest.mark.parametrize("path, code", [
    ("success", 0), ("model error", 1), ("missing root", 2), ("OSError", 2),
])
def test_main_gives_back_the_collector_state(tmp_path, capsys, collector, enabled, path, code):
    argv = {
        "success": ["analyze", TWO_CLASSES],
        "model error": ["analyze", str(FIXTURES / "cycle")],
        "missing root": ["analyze", str(tmp_path / "nope")],
        # The output's directory does not exist.
        "OSError": ["render", TWO_CLASSES, "-o", str(tmp_path / "nope" / "x.gltf"),
                    "--format", "gltf"],
    }[path]
    (gc.enable if enabled else gc.disable)()
    assert main(argv) == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["caller collects", "caller does not"])
def test_main_gives_back_the_collector_state_on_an_exception(monkeypatch, collector,
                                                            enabled):
    def broken(root):
        raise ValueError("internal bug")

    monkeypatch.setattr(pipeline, "analyze", broken)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ValueError, match="internal bug"):
        main(["analyze", TWO_CLASSES])
    assert gc.isenabled() is enabled


def test_usage_error_leaves_the_collector_alone(collector):
    gc.enable()
    with pytest.raises(SystemExit):
        main(["render", TWO_CLASSES])
    assert gc.isenabled()


def test_the_command_runs_with_the_collector_off(monkeypatch, capsys, collector):
    seen = []

    def layer(root):
        seen.append(gc.isenabled())
        raise ConfigSyntaxError("stub", "stopped here")

    monkeypatch.setattr(pipeline, "analyze", layer)
    gc.enable()
    assert main(["analyze", TWO_CLASSES]) == 2
    assert seen == [False]
    assert gc.isenabled()


def test_garbage_left_by_a_command_does_not_grow_with_the_corpus(tmp_path, capsys,
                                                                 collector):
    # With the collector off, a reference cycle the pipeline built would
    # stay until gc.collect() finds it, once per object that holds one:
    # more on the larger corpus. What a command leaves apart from that
    # (the argument parser's own cycles) is the same for any corpus.
    small, large = tmp_path / "small", tmp_path / "large"
    sizes = (len(synth.generate(3, small, max_classes=5).classes),
             len(synth.generate(3, large, max_classes=200).classes))
    assert sizes[1] > 20 * sizes[0]

    def render(root) -> int:
        assert main(["render", str(root), "-o", str(tmp_path / "x.gltf"),
                     "--format", "gltf"]) == 0
        return gc.collect()

    gc.collect()
    gc.disable()
    render(small)  # the first call also leaves what first use caches
    assert render(small) == render(large)
