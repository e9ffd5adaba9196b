"""Mesh builders, tree sizing and scene assembly."""

import functools
import math
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from codeforest.errors import (
    CodeforestError,
    DegenerateSegment,
    InheritanceCycle,
    NonPositiveValue,
)
from codeforest.exporters.mel import mel_text
from codeforest.exporters.obj import obj_text
from codeforest.geometry import (
    CANOPY_LIFT,
    CANOPY_MIN_RADIUS,
    CHANNEL_WIDTH,
    Mesh,
    Scene,
    SceneNode,
    assemble_scene,
    build_channel_mesh,
    build_island_mesh,
    build_tree_parts,
    bounds,
    default_palette,
    flat,
    tree_dimensions,
    world_transforms,
)
from codeforest.geometry import _as_mesh
from codeforest import geometry
from codeforest.config import DEFAULTS, Config, parse_config
from codeforest.layout import build_layout
from codeforest.model import ClassMetrics
from codeforest.pipeline import analyze, build_scene
from conftest import CORPUS_NAMES, FIXTURES, corpus, scene, vec3
import oracles
import synth


def metrics(loc=10, methods=3, fan_out=0):
    return ClassMetrics(
        method_count=methods,
        loc=loc,
        depth=0,
        fan_in=0,
        fan_out=fan_out,
        cohesion=1.0,
        kind_histogram={},
    )


def island(radius=6.0, tiers=1):
    """``build_island_mesh``'s bands and tier heights: equal steps out
    to ``radius``, each lower step's first third a wall, shore at 0."""
    step = radius / tiers
    bands = tuple((u and (u + 1 / 3) * step, (u + 1) * step) for u in range(tiers))
    return bands, tuple(float(tiers - 1 - u) for u in range(tiers))


def check_mesh(mesh):
    assert mesh.positions.shape == mesh.normals.shape == (mesh.vertex_count, 3)
    assert mesh.positions.format == mesh.normals.format == "f"
    assert mesh.indices.format == "I"
    assert mesh.positions.itemsize == mesh.indices.itemsize == 4
    assert len(mesh.indices) % 3 == 0
    assert mesh.indices.ndim == 1
    assert np.isfinite(vec3(mesh.positions)).all()
    if len(mesh.indices):
        assert max(mesh.indices.tolist()) < mesh.vertex_count
    lengths = np.linalg.norm(vec3(mesh.normals).astype(np.float64), axis=1)
    assert np.abs(lengths - 1.0).max() <= 1e-6
    # repr tells -0.0 from 0.0 and shows every bit of the value.
    lo, hi = bounds(mesh)
    assert list(map(repr, lo)) == list(map(repr, vec3(mesh.positions).min(axis=0).tolist()))
    assert list(map(repr, hi)) == list(map(repr, vec3(mesh.positions).max(axis=0).tolist()))


# ---------------------------------------------------------------------------
# Island meshes.

def test_single_tier_island_vertex_count():
    mesh = build_island_mesh(*island(), segments=8)
    assert mesh.vertex_count == 9  # 8 on the summit's outer ring + 1 centre
    check_mesh(mesh)


def test_island_vertex_formula_general():
    for segments, tiers in ((8, 1), (8, 2), (12, 3), (16, 4)):
        mesh = build_island_mesh(*island(tiers=tiers), segments=segments)
        assert mesh.vertex_count == segments * (2 * tiers - 1) + 1
        check_mesh(mesh)


def test_two_tier_island_heights():
    mesh = build_island_mesh(*island(tiers=2), segments=8)
    ys = vec3(mesh.positions)[:, 1]
    assert float(ys.max()) == 1.0  # summit cap at the top tier height
    assert float(ys.min()) == 0.0  # shore tier at the bottom height


def test_island_radius_is_respected():
    mesh = build_island_mesh(*island(radius=6.0), segments=16)
    positions = vec3(mesh.positions)
    r = np.hypot(positions[:, 0], positions[:, 2])
    assert float(r.max()) == pytest.approx(6.0)


def test_island_rings_lie_on_the_band_edges():
    bands, heights = ((0.0, 1.0), (2.0, 3.5), (4.0, 9.0)), (2.0, 1.0, 0.0)
    positions = vec3(build_island_mesh(bands, heights, segments=12).positions)
    edges = {(round(float(np.hypot(x, z)), 5), float(y)) for x, y, z in positions}
    assert edges == {(0.0, 2.0), (1.0, 2.0), (2.0, 1.0), (3.5, 1.0), (4.0, 0.0), (9.0, 0.0)}


def test_island_needs_at_least_eight_segments():
    with pytest.raises(NonPositiveValue):
        build_island_mesh(*island(), segments=7)


def test_too_few_segments_raise_the_config_error_through_the_library():
    # The error a config file gets for the same value, not a bare ValueError.
    with pytest.raises(NonPositiveValue) as err:
        build_scene(corpus("two_classes"), Config(segments=4))
    assert (err.value.key, err.value.value) == ("segments", 4)
    assert str(err.value) == "config key segments must be at least 8, got 4"


def test_too_many_segments_raise_the_config_error_through_the_library():
    with pytest.raises(NonPositiveValue) as err:
        build_scene(corpus("two_classes"), Config(segments=257))
    assert (err.value.key, err.value.value) == ("segments", 257)
    assert str(err.value) == "config key segments must be at most 256, got 257"


# ---------------------------------------------------------------------------
# Channel meshes.

def channel(*points):
    return tuple(points)


def test_two_point_channel_is_one_quad():
    mesh = build_channel_mesh(channel((0, 1, 0), (4, 0, 0)))
    assert mesh.vertex_count == 4
    assert mesh.triangle_count == 2
    check_mesh(mesh)


def test_four_point_channel_has_six_triangles():
    mesh = build_channel_mesh(
        channel((0, 1, 0), (2, 1, 0), (2, 0, 0), (4, 0, 0))
    )
    assert mesh.vertex_count == 8
    assert mesh.triangle_count == 6
    check_mesh(mesh)


def test_channel_normals_point_up():
    mesh = build_channel_mesh(channel((0, 1, 0), (4, 0, 0)))
    assert np.allclose(vec3(mesh.normals), [0.0, 1.0, 0.0])


def test_channel_ribbon_width():
    mesh = build_channel_mesh(channel((0, 0, 0), (4, 0, 0)))
    z = vec3(mesh.positions)[:, 2]
    assert float(z.max() - z.min()) == pytest.approx(CHANNEL_WIDTH)


def test_zero_length_channel_raises():
    with pytest.raises(DegenerateSegment):
        build_channel_mesh(channel((1, 1, 1), (1, 1, 1)))
    with pytest.raises(DegenerateSegment):
        build_channel_mesh(channel((1, 1, 1), (1, 1, 1 + 1e-10), (1, 1, 1 - 1e-10)))


def test_coincident_channel_points_are_dropped():
    clean = build_channel_mesh(channel((0, 1, 0), (2, 1, 0), (4, 0, 3)))
    doubled = build_channel_mesh(
        channel((0, 1, 0), (0, 1, 1e-320), (2, 1, 0), (2, 1, 0), (4, 0, 3)))
    assert doubled == clean


def test_channel_origin_shift():
    base = build_channel_mesh(channel((2, 1, 3), (6, 0, 3)))
    shifted = build_channel_mesh(channel((2, 1, 3), (6, 0, 3)), origin=(2.0, 3.0))
    shifted, base = vec3(shifted.positions), vec3(base.positions)
    assert np.allclose(shifted[:, 0], base[:, 0] - 2.0)
    assert np.allclose(shifted[:, 2], base[:, 2] - 3.0)
    assert np.allclose(shifted[:, 1], base[:, 1])


def ribbon_by_rows(pts, origin=(0.0, 0.0)):
    """The channel ribbon built row by row through the generic
    ``_as_mesh``: every vertex gets its own up normal, normalised, and
    the indices are listed per segment."""
    kept = list(pts[:1])
    for p in pts[1:]:
        if sum((a - b) ** 2 for a, b in zip(p, kept[-1])) >= 1e-18:
            kept.append(p)
    if len(kept) < 2:
        raise DegenerateSegment(len(kept))
    dirs = []
    for (x0, _, z0), (x1, _, z1) in zip(kept, kept[1:]):
        h = math.hypot(x1 - x0, z1 - z0)
        dirs.append(((x1 - x0) / h, (z1 - z0) / h) if h > 1e-12 else None)
    fallback = next((d for d in dirs if d is not None), (1.0, 0.0))
    dirs = [d or fallback for d in dirs]
    half = CHANNEL_WIDTH / 2.0
    verts, norms, tris = [], [], []
    for i, (x, y, z) in enumerate(kept):
        if i == 0 or i == len(kept) - 1:
            dx, dz = dirs[min(i, len(dirs) - 1)]
        else:
            mx, mz = dirs[i - 1][0] + dirs[i][0], dirs[i - 1][1] + dirs[i][1]
            m = math.hypot(mx, mz)
            dx, dz = (mx / m, mz / m) if m > 1e-12 else dirs[i]
        px, pz = -dz, dx
        verts += [(x - origin[0] - px * half, y, z - origin[1] - pz * half),
                  (x - origin[0] + px * half, y, z - origin[1] + pz * half)]
        norms += [(0.0, 1.0, 0.0)] * 2
    for i in range(len(kept) - 1):
        tris += [(2 * i, 2 * i + 1, 2 * i + 3), (2 * i, 2 * i + 3, 2 * i + 2)]
    return _as_mesh(verts, norms, tris, geometry.MAT_WATER)


_RIBBON_STEP = st.one_of(
    st.tuples(st.floats(-50, 50), st.floats(-5, 5), st.floats(-50, 50)),  # any step
    st.tuples(st.just(0.0), st.floats(-5, 5), st.just(0.0)),  # a vertical drop
    st.tuples(st.floats(-1e-10, 1e-10), st.floats(-1e-10, 1e-10),
              st.floats(-1e-10, 1e-10)),  # a near-duplicate point
    st.just((0.0, 0.0, 0.0)),  # the same point again
)


@settings(max_examples=300, deadline=None)
@given(start=st.tuples(st.floats(-1e3, 1e3), st.floats(0, 10), st.floats(-1e3, 1e3)),
       steps=st.lists(_RIBBON_STEP, min_size=1, max_size=5),
       origin=st.sampled_from([(0.0, 0.0), (-0.0, 0.0)])
       | st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
@example(start=(0.0, 1.0, 0.0), steps=[(0.0, -1.0, 0.0), (0.0, -0.5, 0.0)], origin=(0.0, 0.0))
@example(start=(1.0, 1.0, 1.0), steps=[(1e-10, 0.0, -1e-10)], origin=(0.0, 0.0))
def test_channel_ribbon_equals_the_generic_build(start, steps, origin):
    pts = [start]
    for step in steps:
        pts.append(tuple(a + b for a, b in zip(pts[-1], step)))
    pts = tuple(pts)
    try:
        expected = ribbon_by_rows(pts, origin)
    except DegenerateSegment as err:
        with pytest.raises(DegenerateSegment) as got:
            build_channel_mesh(pts, origin)
        assert str(got.value) == str(err)
        return
    mesh = build_channel_mesh(pts, origin)
    for name in ("positions", "normals", "indices"):
        got, want = getattr(mesh, name), getattr(expected, name)
        assert (got.tobytes(), got.shape, got.format, got.readonly) == (
            want.tobytes(), want.shape, want.format, want.readonly)
    assert mesh.material == expected.material
    # Normals and indices depend on the point count alone: every ribbon
    # of that count holds the very same two views.
    straight = build_channel_mesh(tuple((float(i), 0.0, 0.0)
                                        for i in range(mesh.vertex_count // 2)))
    assert mesh.normals is straight.normals
    assert mesh.indices is straight.indices


# ---------------------------------------------------------------------------
# Mesh arrays against the numpy formula.

_F32_MAX = float(np.finfo(np.float32).max)
# The smallest magnitude a float32 cast rounds to infinity: half an ulp
# past the largest float32.
_F32_OVERFLOW = 2.0**128 - 2.0**103

_COMPONENT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.0, 2.0),
    st.floats(-1e-36, 1e-36),  # float32 subnormals and below
    st.sampled_from([0.0, -0.0, 5e-324, 1e-45, -7e-46, _F32_MAX,
                     math.nextafter(_F32_OVERFLOW, 0.0), _F32_OVERFLOW,
                     -1e39, 1e300]),
)
_TRIPLE = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT)
_NORMAL = st.one_of(st.just((0.0, 0.0, 0.0)), st.just((-0.0, 0.0, -0.0)), _TRIPLE)
_INDEX = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_TRIPLE, _NORMAL), min_size=1, max_size=10),
       tris=st.lists(st.tuples(_INDEX, _INDEX, _INDEX), max_size=6))
@example(rows=[((1e-40, _F32_OVERFLOW, -1e39), (0.0, 0.0, 0.0)),
               ((_F32_MAX, -7e-46, 2.5), (1e-300, 0.0, -1e-300)),
               ((0.0, -0.0, 1.0), (3.0, 4.0, 1e200))],
         tris=[(0, 1, 2)])
def test_mesh_arrays_match_the_numpy_formula(rows, tris):
    verts = [v for v, _ in rows]
    norms = [n for _, n in rows]
    mesh = _as_mesh(verts, norms, tris, 5)
    positions, normals, indices = oracles.mesh_arrays(verts, norms, tris)
    assert mesh.positions.tobytes() == positions.tobytes()
    assert mesh.normals.tobytes() == normals.tobytes()
    assert mesh.indices.tobytes() == indices.tobytes()
    assert mesh.positions.shape == mesh.normals.shape == positions.shape
    assert mesh.indices.shape == indices.shape
    assert (mesh.vertex_count, mesh.triangle_count, mesh.material) == (len(rows), len(tris), 5)
    # Past the float32 range, and only there, a coordinate becomes inf.
    past = [abs(v) >= _F32_OVERFLOW for v in chain.from_iterable(verts)]
    assert [math.isinf(v) for v in flat(mesh.positions)] == past


# ---------------------------------------------------------------------------
# Tree sizing.

def test_trunk_height_formula():
    dims = tree_dimensions(metrics(loc=10), 0, Config())
    assert dims.trunk_height == pytest.approx(1.0 + 0.4 * math.log(11))


def test_trunk_height_grows_with_loc():
    params = Config()
    heights = [
        tree_dimensions(metrics(loc=n), 0, params).trunk_height
        for n in (1, 5, 20, 100, 1000)
    ]
    assert heights == sorted(heights)
    assert len(set(heights)) == len(heights)


def test_trunk_radius_normalises_fan_out():
    params = Config()
    thin = tree_dimensions(metrics(fan_out=0), 8, params)
    thick = tree_dimensions(metrics(fan_out=8), 8, params)
    assert thin.trunk_radius == pytest.approx(0.15)
    assert thick.trunk_radius == pytest.approx(0.30)


def test_zero_max_fan_out_means_base_radius():
    dims = tree_dimensions(metrics(fan_out=0), 0, Config())
    assert dims.trunk_radius == pytest.approx(0.15)


def test_canopy_radius_floor():
    small = tree_dimensions(metrics(methods=0), 0, Config())
    assert small.canopy_radius == CANOPY_MIN_RADIUS
    big = tree_dimensions(metrics(methods=16), 0, Config())
    assert big.canopy_radius == pytest.approx(0.5 * 4.0)


# ---------------------------------------------------------------------------
# Tree parts.

def make_parts(methods=3, kinds=None, loc=10, meshes=None):
    """The tree parts of one class; each builds its own mesh into
    ``meshes``, and a node's mesh is its index there."""
    dims = tree_dimensions(metrics(loc=loc, methods=methods), 0, Config())
    labels = [f"m{i}" for i in range(methods)]
    kinds = kinds or ["other"] * methods
    meshes = [] if meshes is None else meshes

    def mesh(build, *args):
        meshes.append(build(*args))
        return len(meshes) - 1

    return build_tree_parts("pkg.K", labels, kinds, dims, 12, mesh), dims


def test_tree_part_names_and_order():
    parts, _ = make_parts(2)
    assert [p.name for p in parts] == [
        "trunk:pkg.K", "canopy:pkg.K", "leaf:pkg.K.m0", "leaf:pkg.K.m1"
    ]


def test_canopy_sits_above_trunk():
    parts, dims = make_parts()
    canopy = parts[1]
    assert canopy.translation[1] == pytest.approx(
        dims.trunk_height + CANOPY_LIFT * dims.canopy_radius
    )


def test_leaves_lie_on_the_canopy_sphere():
    parts, dims = make_parts(7)
    canopy = parts[1]
    for leaf in parts[2:]:
        d = math.dist(leaf.translation, canopy.translation)
        assert d == pytest.approx(dims.canopy_radius)


def test_zero_method_class_has_no_leaves():
    parts, _ = make_parts(0)
    assert [p.name for p in parts] == ["trunk:pkg.K", "canopy:pkg.K"]


def test_leaf_materials_follow_kinds():
    meshes = []
    parts, _ = make_parts(
        4, kinds=["constructor", "accessor", "mutator", "other"], meshes=meshes
    )
    mats = [meshes[p.mesh].material for p in parts[2:]]
    assert mats == [6, 4, 5, 7]


# ---------------------------------------------------------------------------
# Scene assembly.

def names_of(s):
    return [n.name for n in s.nodes]


def test_two_classes_scene_census(two_classes_scene):
    s = two_classes_scene
    names = names_of(s)
    assert len(names) == 14
    assert sum(1 for n in s.nodes if n.mesh is not None) == 11
    assert names[0] == "forest"
    assert set(names) == {
        "forest",
        "island:",
        "tree:.Ownerbbb", "trunk:.Ownerbbb", "canopy:.Ownerbbb",
        "leaf:.Ownerbbb.getMaxNumLeagues", "leaf:.Ownerbbb.setMaxNumLeagues",
        "tree:.Useraaa", "trunk:.Useraaa", "canopy:.Useraaa",
        "leaf:.Useraaa.getEmail", "leaf:.Useraaa.setEmail", "leaf:.Useraaa.notify",
        "channel:Useraaa->Ownerbbb",
    }


def test_annotation_scene_counts():
    s = scene("jfreechart_annotations")
    names = names_of(s)
    assert sum(1 for n in names if n.startswith("tree:")) == 15
    assert sum(1 for n in names if n.startswith("leaf:")) == 122
    assert sum(1 for n in names if n.startswith("channel:")) == 12
    assert sum(1 for n in names if n.startswith("island:")) == 1


def test_node_names_are_unique_everywhere():
    for name in CORPUS_NAMES:
        names = names_of(scene(name))
        assert len(names) == len(set(names))


def test_duplicate_simple_names_get_suffixes(tmp_path):
    for pkg in ("pa", "pb"):
        d = tmp_path / pkg
        d.mkdir()
        (d / "Base.java").write_text(f"package {pkg};\nclass Base {{ }}")
        (d / "Kid.java").write_text(
            f"package {pkg};\nclass Kid extends Base {{ }}"
        )
    from codeforest.pipeline import analyze, build_scene

    s = build_scene(analyze(tmp_path))
    channels = sorted(n.name for n in s.nodes if n.name.startswith("channel:"))
    assert channels == ["channel:Base->Kid", "channel:Base->Kid#2"]


def test_same_island_channels_hang_under_their_island(two_classes_scene):
    s = two_classes_scene
    by_name = {n.name: i for i, n in enumerate(s.nodes)}
    island_node = s.nodes[by_name["island:"]]
    assert by_name["channel:Useraaa->Ownerbbb"] in island_node.children


def test_cross_island_channels_hang_under_root():
    s = scene("multipkg")
    root_children = {s.nodes[i].name for i in s.nodes[0].children}
    assert "channel:Base->Child" in root_children


def test_world_positions_compose_through_the_node_chain(two_classes_scene):
    s = two_classes_scene
    by_name = {n.name: i for i, n in enumerate(s.nodes)}

    def manual_world(name):
        # Walk parents by construction: leaf -> tree -> island -> root.
        chain = []
        target = by_name[name]
        parent = {c: i for i, n in enumerate(s.nodes) for c in n.children}
        while target is not None:
            chain.append(s.nodes[target].translation)
            target = parent.get(target)
        return tuple(sum(axis) for axis in zip(*chain))

    transforms = world_transforms(s)
    leaf = by_name["leaf:.Useraaa.getEmail"]
    assert transforms[leaf][:3] == pytest.approx(manual_world("leaf:.Useraaa.getEmail"))


def test_all_fixture_meshes_are_valid():
    for name in CORPUS_NAMES:
        for mesh in scene(name).meshes:
            check_mesh(mesh)


def test_scene_build_is_bitwise_deterministic():
    info = corpus("jfreechart_annotations")
    from codeforest.pipeline import build_scene

    a = build_scene(info)
    b = build_scene(info)
    assert names_of(a) == names_of(b)
    for ma, mb in zip(a.meshes, b.meshes):
        assert ma.positions.tobytes() == mb.positions.tobytes()
        assert ma.normals.tobytes() == mb.normals.tobytes()
        assert ma.indices.tobytes() == mb.indices.tobytes()


def test_empty_corpus_gives_bare_root(tmp_path):
    from codeforest.pipeline import analyze, build_scene

    s = build_scene(analyze(tmp_path))
    assert len(s.nodes) == 1
    assert s.nodes[0].name == "forest"
    assert s.meshes == []


def test_default_palette_has_eight_slots():
    palette = default_palette()
    assert len(palette) == 8
    canopy = palette[2]
    assert canopy.base_color[3] < 1.0  # translucent canopy
    assert all(0.0 <= c <= 1.0 for m in palette for c in m.base_color)


# ---------------------------------------------------------------------------
# Mesh sharing.

def content(mesh):
    return (mesh.positions.tobytes(), mesh.normals.tobytes(), mesh.indices.tobytes(),
            mesh.material)


def assert_one_copy(s):
    """No two meshes of ``s`` have equal positions, normals, indices and
    material."""
    first = {}
    for i, mesh in enumerate(s.meshes):
        j = first.setdefault(content(mesh), i)
        assert j == i, f"meshes {j} and {i} of {len(s.meshes)} are content-equal"


def _copy(view):
    return memoryview(view.tobytes()).cast(view.format, view.shape)


def unshared(s):
    """The scene with a private copy of its mesh on every mesh node."""
    nodes, meshes = [], []
    for node in s.nodes:
        if node.mesh is not None:
            mesh = s.meshes[node.mesh]
            meshes.append(Mesh(_copy(mesh.positions), _copy(mesh.normals),
                               _copy(mesh.indices), mesh.material))
            node = SceneNode(node.name, node.translation, len(meshes) - 1, node.children)
        nodes.append(node)
    return Scene(nodes, meshes, s.materials)


def synth_scene(seed, tmp_path):
    synth.generate(seed, tmp_path)
    return build_scene(analyze(tmp_path))


def test_the_seventh_fixture_never_reaches_a_scene():
    # The sharing tests below cover every fixture that renders.
    assert sorted(CORPUS_NAMES + ["cycle"]) == sorted(p.name for p in FIXTURES.iterdir())
    with pytest.raises(InheritanceCycle):
        analyze(FIXTURES / "cycle")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_mesh_sharing_is_invisible_to_obj_and_mel(name):
    shared = scene(name)
    own = unshared(shared)
    assert obj_text(shared, "forest.mtl") == obj_text(own, "forest.mtl")
    assert mel_text(shared) == mel_text(own)


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_mesh_sharing_is_invisible_on_synth_corpora(seed, tmp_path):
    shared = synth_scene(seed, tmp_path)
    own = unshared(shared)
    assert obj_text(shared) == obj_text(own)
    assert mel_text(shared) == mel_text(own)


def test_leaves_and_equal_canopies_share_meshes():
    s = scene("jfreechart_annotations")
    mesh_nodes = [n for n in s.nodes if n.mesh is not None]
    assert len(s.meshes) < len(mesh_nodes)
    leaf_meshes = {n.mesh for n in mesh_nodes if n.name.startswith("leaf:")}
    assert len(leaf_meshes) <= 4
    assert_one_copy(s)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_fixture_scenes_store_each_mesh_once(name):
    assert_one_copy(scene(name))


@pytest.mark.parametrize("seed", range(10))
def test_synth_scenes_store_each_mesh_once(seed, tmp_path):
    assert_one_copy(synth_scene(seed, tmp_path))


def test_each_distinct_mesh_is_built_once_per_scene(monkeypatch):
    calls = []  # (builder, arguments, content of the mesh built)

    def counted(name):
        build = getattr(geometry, name)

        def wrapper(*args):
            mesh = build(*args)
            calls.append((name, args, content(mesh)))
            return mesh

        monkeypatch.setattr(geometry, name, wrapper)

    for name in ("_cylinder", "_sphere", "build_island_mesh", "build_channel_mesh"):
        counted(name)
    # synth seed 0 has islands and channels of equal shape on several islands.
    for info in (corpus("jfreechart_annotations"), synth_info(0)):
        calls.clear()
        s = build_scene(info)
        # Each builder runs once per distinct argument list, islands and
        # channels as tree parts do.
        args = [(name, a) for name, a, _ in calls]
        assert len(set(args)) == len(args)
        layout, segments = build_layout(info.model, Config()), Config().segments
        assert {a for name, a in args if name == "build_island_mesh"} == {
            (tuple(i.bands), tuple(i.tier_heights), segments) for i in layout.islands}
        assert {a[0] for name, a in args if name == "build_channel_mesh"} == {
            tuple(c.polyline) for c in layout.channels}
        # The scene keeps one mesh per distinct content built.
        built = {c for _, _, c in calls}
        assert len(s.meshes) == len(built)
        assert {content(m) for m in s.meshes} == built
        # Sharing holds within one call: a second scene builds its own meshes.
        build_scene(info)
        assert args * 2 == [(name, a) for name, a, _ in calls]


def test_shared_mesh_arrays_are_read_only():
    # Every mesh, shared or not: islands and channels included.
    kinds = set()
    for name in CORPUS_NAMES:
        s = scene(name)
        kinds.update(n.name.split(":")[0] for n in s.nodes if n.mesh is not None)
        for mesh in s.meshes:
            for array in (mesh.positions, mesh.normals):
                assert array.readonly
                with pytest.raises(TypeError):
                    array[0, 0] = 0.0
            assert mesh.indices.readonly
            with pytest.raises(TypeError):
                mesh.indices[0] = 0
    assert kinds == {"island", "trunk", "canopy", "leaf", "channel"}


# ---------------------------------------------------------------------------
# Random valid configs.

@functools.lru_cache(maxsize=None)
def synth_info(seed):
    # A cache, not a fixture: hypothesis would print a fixture's corpora
    # with every failing example.
    with tempfile.TemporaryDirectory() as tmp:
        synth.generate(seed, Path(tmp))
        return analyze(tmp)


# Sizes stay within [0.05, 50]: wider island radii make the spiral slow.
_CONFIG_LINES = st.fixed_dictionaries(
    {
        name: (
            st.integers(min_value=0) if name == "seed"
            else st.integers(8, 24) if name == "segments"
            else st.floats(0.05, 50.0)
        )
        for name in DEFAULTS
    }
).map(lambda values: "".join(f"{key} = {value!r}\n" for key, value in values.items()))


# No shrinking: an example can take 0.4 s (narrow margins, wide islands),
# so shrinking a failure would run for minutes. It is reported as drawn.
@settings(max_examples=60, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(seed=st.integers(0, 5), text=_CONFIG_LINES)
def test_random_valid_configs_give_sound_scenes(seed, text):
    """A valid config gives a typed error or a scene whose trunks keep
    ``s_min`` apart, whose channels never climb and whose coordinates
    are all finite."""
    cfg = parse_config(text)
    try:
        sc = build_scene(synth_info(seed), cfg)
    except CodeforestError:
        return
    assert np.isfinite(world_transforms(sc)).all()
    assert_one_copy(sc)
    assert all(np.isfinite(vec3(m.positions)).all() for m in sc.meshes)
    for child in sc.nodes[0].children:
        island = sc.nodes[child]
        if not island.name.startswith("island:"):
            continue
        trunks = [
            (sc.nodes[i].translation[0], sc.nodes[i].translation[2])
            for i in island.children
            if sc.nodes[i].name.startswith("tree:")
        ]
        assert oracles.min_pair_distance(trunks) >= cfg.s_min - 1e-9
    for node in sc.nodes:
        if node.name.startswith("channel:"):
            ys = vec3(sc.meshes[node.mesh].positions)[::2, 1]  # one vertex pair per point
            assert (np.diff(ys) <= 0.0).all(), node.name
