"""Shared fixtures: parsed corpora and built scenes, cached per session.

Tests treat the returned objects as read-only; caching keeps the larger
fixtures (the annotations snapshot in particular) to a single parse.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

from codeforest.geometry import Mesh
from codeforest.pipeline import analyze, build_scene

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS_NAMES = ["two_classes", "jfreechart_annotations", "calls", "overload",
                "nested", "multipkg"]


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
