"""Shared fixtures: parsed corpora and built scenes, cached per session,
and the random scenes that the OBJ and glTF properties draw.

Tests treat the returned objects as read-only; caching keeps the larger
fixtures (the annotations snapshot in particular) to a single parse.
"""

from __future__ import annotations

import functools
import signal
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from codeforest.geometry import Mesh, Scene, SceneNode, default_palette
from codeforest.pipeline import analyze, build_scene

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS_NAMES = ["two_classes", "jfreechart_annotations", "calls", "overload",
                "nested", "multipkg", "modern", "unicode"]


@functools.lru_cache(maxsize=None)
def corpus(name: str):
    return analyze(FIXTURES / name)


@functools.lru_cache(maxsize=None)
def scene(name: str):
    return build_scene(corpus(name))


@pytest.fixture
def two_classes():
    return corpus("two_classes")


@pytest.fixture
def annotations():
    return corpus("jfreechart_annotations")


@pytest.fixture
def two_classes_scene():
    return scene("two_classes")


def write_deep_corpus(root: Path) -> int:
    """Write a file of member classes ``A0``, ``A1``, ..., each nested in
    the one before, 100 levels deeper than the interpreter's recursion
    limit, beside an ordinary file; return the depth."""
    depth = sys.getrecursionlimit() + 100
    (root / "Deep.java").write_text("".join(f"class A{i} {{ " for i in range(depth)) + "}" * depth)
    (root / "Plain.java").write_text("class Plain { void m() { } }")
    return depth


class Hung(BaseException):
    """Raised by ``deadline``. No ``Exception``: ``main`` would catch an
    OSError, and hypothesis would shrink a failing example, running each
    attempt up to the deadline again for minutes."""


@contextmanager
def deadline(seconds):
    """Raise ``Hung`` in the block once it has run ``seconds``."""
    def hang(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def vec3(view) -> np.ndarray:
    """A mesh's positions or normals as a numpy float32 (n, 3) array."""
    return np.frombuffer(view, np.float32).reshape(-1, 3)


def literal_mesh(positions, normals, indices, material: int) -> Mesh:
    """A mesh from literal rows, stored as the builders store one."""
    def view(values, dtype):
        array = np.asarray(values, dtype)
        return memoryview(array.tobytes()).cast(array.dtype.char, array.shape)

    return Mesh(view(positions, np.float32), view(normals, np.float32),
                view(indices, np.uint32), material)


def flat_mesh(positions, normals, indices, material=0) -> Mesh:
    """A mesh from flat x, y, z runs and a flat index run."""
    def vec3_view(values):
        return memoryview(array("f", values).tobytes()).cast("f", (len(values) // 3, 3))

    return Mesh(vec3_view(positions), vec3_view(normals),
                memoryview(array("I", indices).tobytes()).cast("I"), material)


FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)

# Quotes, backslashes, controls, non-ASCII, a line separator and an
# astral character (which JSON writes as a surrogate pair).
_AWKWARD = st.sampled_from('a"\\/\x00\x1f\x7f\n\té ퟿\U0001f332')


def texts(min_size: int = 0, max_size: int | None = None):
    """Text of awkward characters only, or any text."""
    return (st.text(_AWKWARD, min_size=min_size, max_size=max_size)
            | st.text(min_size=min_size, max_size=max_size))


@st.composite
def random_meshes(draw) -> Mesh:
    """One to six vertices and zero to five triangles."""
    n = draw(st.integers(1, 6))
    positions = draw(st.lists(FLOAT32, min_size=3 * n, max_size=3 * n))
    normals = draw(st.lists(FLOAT32, min_size=3 * n, max_size=3 * n))
    t = draw(st.integers(0, 5))
    indices = draw(st.lists(st.integers(0, n - 1), min_size=3 * t, max_size=3 * t))
    return flat_mesh(positions, normals, indices, draw(st.integers(0, 7)))


@st.composite
def random_scenes(draw) -> Scene:
    """A node tree over a few meshes: some shared, some used once, some
    nodes without a mesh, leaves without children, translations zero,
    ``-0.0``, negative and large."""
    meshes = draw(st.lists(random_meshes(), min_size=1, max_size=4))
    offsets = st.floats(-1e9, 1e9, allow_nan=False)
    translations = (st.tuples(offsets, offsets, offsets)
                    | st.sampled_from([(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)]))
    nodes = [SceneNode(draw(texts(0, 4)))]
    for i in range(1, draw(st.integers(1, 10)) + 1):
        nodes.append(SceneNode(
            draw(texts(1, 6)),
            translation=draw(translations),
            mesh=draw(st.none() | st.integers(0, len(meshes) - 1)),
        ))
        nodes[draw(st.integers(0, i - 1))].children.append(i)
    return Scene(nodes, meshes, default_palette())
