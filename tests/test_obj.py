"""Tests for the Wavefront OBJ/MTL exporter."""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codeforest.config import parse_config
from codeforest.errors import OutputIsMaterialFile
from codeforest.exporters import obj as obj_module
from codeforest.exporters.obj import export_obj, mtl_text, obj_text
from codeforest.geometry import (
    Material,
    Mesh,
    Scene,
    SceneNode,
    default_palette,
    world_transforms,
)
from codeforest.pipeline import analyze, build_scene

import synth
from conftest import CORPUS_NAMES, flat_mesh, literal_mesh, random_scenes, scene, vec3
from golden.update import BENCH_SEED, REPO, corpora
from oracles import obj_corners, obj_text_per_corner, obj_text_per_node, read_obj


def triangle_scene() -> Scene:
    mesh = literal_mesh(
        positions=[[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        normals=[[0, 1, 0]] * 3,
        indices=[0, 1, 2],
        material=0,
    )
    nodes = [
        SceneNode("forest", children=[1]),
        SceneNode("tri", translation=(1.0, 2.0, 3.0), mesh=0),
    ]
    return Scene(nodes, [mesh], [Material("island", (0.85, 0.78, 0.55, 1.0))])


def test_single_triangle_exact_text():
    assert obj_text(triangle_scene()) == "\n".join(
        [
            "o tri",
            "usemtl island",
            "v 1.000000 2.000000 3.000000",
            "v 2.000000 2.000000 3.000000",
            "v 1.000000 3.000000 3.000000",
            "vn 0.000000 1.000000 0.000000",
            "f -3//1 -2//1 -1//1",
        ]
    ) + "\n"


def test_mtllib_line_only_when_named():
    sc = triangle_scene()
    assert not obj_text(sc).startswith("mtllib")
    assert obj_text(sc, mtl_name="forest.mtl").splitlines()[0] == "mtllib forest.mtl"


def test_empty_scene_produces_no_groups():
    sc = Scene([SceneNode("forest")], [], default_palette())
    assert obj_text(sc) == "\n"


def test_two_classes_one_group_per_mesh_node():
    built = scene("two_classes")
    objects, _, _, _ = read_obj(obj_text(built))
    mesh_nodes = [n for n in built.nodes if n.mesh is not None]
    assert len(objects) == len(mesh_nodes) == 11
    assert [o[0] for o in objects] == [n.name for n in mesh_nodes]
    assert [o[1] for o in objects] == [
        built.materials[built.meshes[n.mesh].material].name for n in mesh_nodes
    ]
    assert [o[2] for o in objects] == [
        built.meshes[n.mesh].triangle_count for n in mesh_nodes
    ]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_round_trip_counts_and_index_bounds(name):
    built = scene(name)
    objects, verts, normals, faces = read_obj(obj_text(built))
    placed = [built.meshes[n.mesh] for n in built.nodes if n.mesh is not None]
    assert len(verts) == sum(m.vertex_count for m in placed)
    assert len(faces) == sum(m.triangle_count for m in placed)
    # The vertex numbers each face may name: its own group's.
    groups, first = [], 1
    for m in placed:
        groups += [range(first, first + m.vertex_count)] * m.triangle_count
        first += m.vertex_count
    for corners, group in zip(faces, groups):
        assert len(corners) == 3
        for v, n in corners:
            assert v in group
            assert 1 <= n <= len(normals)


def test_vertices_are_world_baked():
    built = scene("multipkg")
    _, verts, _, _ = read_obj(obj_text(built))
    transforms = world_transforms(built)
    expected = []
    for idx, node in enumerate(built.nodes):
        if node.mesh is None:
            continue
        tx, ty, tz = transforms[idx]
        for x, y, z in vec3(built.meshes[node.mesh].positions):
            expected.append((tx + float(x), ty + float(y), tz + float(z)))
    assert len(verts) == len(expected)
    for got, want in zip(verts, expected):
        assert got == pytest.approx(want, abs=1e-6)


def test_mtl_lists_whole_palette():
    text = mtl_text(scene("two_classes"))
    lines = text.splitlines()
    names = [ln.split()[1] for ln in lines if ln.startswith("newmtl ")]
    assert names == [m.name for m in default_palette()]
    assert "Kd 0.850000 0.780000 0.550000" in lines
    canopy_at = lines.index("newmtl canopy")
    assert lines[canopy_at + 2] == "d 0.350000"
    assert text.endswith("\n")


def test_export_writes_sibling_mtl(tmp_path):
    obj_path, mtl_path = export_obj(scene("two_classes"), tmp_path / "forest.obj")
    assert obj_path == tmp_path / "forest.obj"
    assert mtl_path == tmp_path / "forest.mtl"
    text = obj_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "mtllib forest.mtl"
    assert mtl_path.read_text(encoding="utf-8") == mtl_text(scene("two_classes"))


def test_export_refuses_a_path_that_is_its_own_mtl(tmp_path):
    with pytest.raises(OutputIsMaterialFile) as caught:
        export_obj(scene("two_classes"), tmp_path / "forest.mtl")
    assert caught.value.exit_code == 2
    assert str(tmp_path / "forest.mtl") in str(caught.value)
    assert list(tmp_path.iterdir()) == []


def _no_triangles() -> Mesh:
    """Two vertices and ``indices=memoryview(b"").cast("I")``."""
    return flat_mesh([0.0, 1.0, 2.0] * 2, [0.0, 1.0, 0.0] * 2, [])


def _zero_triangle_scene() -> Scene:
    """A mesh without triangles that two nodes share, another that one
    node uses, and a one-triangle node between them."""
    tri = triangle_scene().meshes[0]
    nodes = [
        SceneNode("forest", children=[1, 2, 3, 4]),
        SceneNode("leaf:ä", translation=(-3.5, 2e8, 0.25), mesh=1),
        SceneNode("tri", translation=(1.0, 2.0, 3.0), mesh=0),
        SceneNode("leaf:方法", mesh=1),
        SceneNode("once", mesh=2),
    ]
    return Scene(nodes, [tri, _no_triangles(), _no_triangles()], default_palette())


def vn_lines(text: str) -> list[str]:
    return [line for line in text.split("\n") if line.startswith("vn ")]


def assert_same_geometry(built: Scene, mtl_name: str | None = None) -> None:
    """``obj_text`` and the per-corner writer write the same lines but
    ``vn``, and each face corner names the same ``v`` and ``vn`` text;
    no normal is written twice."""
    text = obj_text(built, mtl_name)
    assert obj_corners(text) == obj_corners(obj_text_per_corner(built, mtl_name))
    normals = vn_lines(text)
    assert len(set(normals)) == len(normals)


def test_obj_corners_reads_positive_and_negative_references_alike():
    head = "v 0 0 0\nv 1 0 0\nvn 0 1 0\nvn 1 0 0\n"
    corners = (("v 0 0 0", "vn 0 1 0"), ("v 1 0 0", "vn 1 0 0"), ("v 1 0 0", "vn 0 1 0"))
    assert obj_corners(head + "f 1//1 2//2 2//1\n") == ["v 0 0 0", "v 1 0 0", corners, ""]
    assert obj_corners(head + "f -2//-2 -1//-1 -1//-2\n") == ["v 0 0 0", "v 1 0 0", corners, ""]
    assert read_obj(head + "f -2//-2 -1//-1 -1//-2\n")[3] == [((1, 1), (2, 2), (2, 1))]


@pytest.mark.parametrize("text", [
    "v 0 0 0\nvn 0 1 0\nf 0//1 1//1 1//1\n",
    "v 0 0 0\nvn 0 1 0\nf 1//1 1//0 1//1\n",
    "v 0 0 0\nvn 0 1 0\nf 1//1 2//1 1//1\n",
    "v 0 0 0\nvn 0 1 0\nf -2//1 1//1 1//1\n",
    "v 0 0 0\nf 1//1 1//1 1//1\nvn 0 1 0\n",
    "v 0 0 0\nf 1//-1 1//-1 1//-1\nvn 0 1 0\n",
], ids=["v 0", "vn 0", "v past the last", "v before the first", "vn ahead", "vn -1 ahead"])
def test_obj_readers_reject_a_reference_to_no_line_before_it(text):
    with pytest.raises(ValueError):
        obj_corners(text)
    with pytest.raises(ValueError):
        read_obj(text)


def _line_break_scene() -> Scene:
    """Node names that, written raw, would add ``vn``, ``f`` and ``v``
    lines."""
    built = triangle_scene()
    built.nodes[1].name = "a\nvn 1 2 3\r\nf 1//1 1//1 1//1\u2028v 9 9 9"
    built.nodes.append(SceneNode("b\x85vn 4 5 6\x0bc", mesh=0))
    built.nodes[0].children.append(2)
    return built


@settings(max_examples=200, deadline=None)
@given(random_scenes(), st.none() | st.text(max_size=8))
@example(_zero_triangle_scene(), "forest.mtl")
@example(_line_break_scene(), "x\nvn 0 0 0\n.mtl")
def test_obj_text_equals_the_per_corner_writer(built, mtl_name):
    assert_same_geometry(built, mtl_name)


# Few values, so that an axis repeats within a mesh: both zeros, two
# exact binary fractions and the largest float32.
_POOL = st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.4028234663852886e38])
_OFFSETS = st.sampled_from([0.0, -0.0, 1.5, 1e9, -1e9]) | st.floats(-1e9, 1e9)


def _pooled_mesh(positions: list[float], indices=()) -> Mesh:
    """A mesh of flat x, y, z runs; with no vertices, a 1-D empty view,
    since a memoryview cannot be cast to shape (0, 3)."""
    if not positions:
        empty = memoryview(b"").cast("f")
        return Mesh(empty, empty, memoryview(b"").cast("I"), 0)
    return flat_mesh(positions, [0.0, 1.0, -0.0] * (len(positions) // 3), list(indices))


@st.composite
def pooled_meshes(draw) -> Mesh:
    n = draw(st.integers(0, 5))
    positions = draw(st.lists(_POOL, min_size=3 * n, max_size=3 * n))
    t = draw(st.integers(0, 3)) if n else 0
    return _pooled_mesh(positions, draw(st.lists(
        st.integers(0, max(n - 1, 0)), min_size=3 * t, max_size=3 * t)))


@st.composite
def shared_mesh_scenes(draw) -> Scene:
    """Up to three pooled meshes over up to eight nodes, nested, so each
    mesh is likely used more than once."""
    meshes = draw(st.lists(pooled_meshes(), min_size=1, max_size=3))
    nodes = [SceneNode("forest")]
    for i in range(1, draw(st.integers(1, 8)) + 1):
        translation = draw(st.just((-0.0, -0.0, -0.0))
                           | st.tuples(_OFFSETS, _OFFSETS, _OFFSETS))
        nodes.append(SceneNode(f"n{i}", translation=translation,
                               mesh=draw(st.integers(0, len(meshes) - 1))))
        nodes[draw(st.integers(0, i - 1))].children.append(i)
    return Scene(nodes, meshes, default_palette())


def _sharing_scene(mesh: Mesh, translation=(-0.0, -0.0, -0.0)) -> Scene:
    """Three nodes under the root that all use ``mesh``."""
    nodes = [SceneNode("forest", children=[1, 2, 3])]
    nodes += [SceneNode(f"n{i}", translation=translation, mesh=0) for i in range(3)]
    return Scene(nodes, [mesh], default_palette())


@settings(max_examples=150, deadline=None)
@given(shared_mesh_scenes())
# Shared meshes: both zeros on one axis, no vertex (a bare itemgetter()
# raises), one vertex.
@example(_sharing_scene(_pooled_mesh([0.0, 1.5, -0.0, -0.0, 1.5, 0.0], [0, 1, 1])))
@example(_sharing_scene(_pooled_mesh([])))
@example(_sharing_scene(_pooled_mesh([-2.25, -0.0, 1.5]), (1e9, -1e9, -0.0)))
def test_obj_text_equals_the_per_node_writer_byte_for_byte(built):
    assert obj_text(built, "forest.mtl") == obj_text_per_node(built, "forest.mtl")


def test_a_plan_keeps_both_zeros_apart(monkeypatch):
    # A world translation is never -0.0 (the walk starts at +0.0, and
    # 0.0 + -0.0 is 0.0), so only a stand-in walk shows that a plan
    # keys its coordinates by bits: by value, -0.0 would take 0.0's slot.
    built = _sharing_scene(_pooled_mesh([0.0, 1.5, -0.0, -0.0, 1.5, 0.0], [0, 1, 1]))
    monkeypatch.setattr(obj_module, "world_transforms",
                        lambda scene: [(-0.0, -0.0, -0.0)] * len(scene.nodes))
    v_lines = [line for line in obj_text(built).splitlines() if line.startswith("v ")]
    assert v_lines == ["v 0.000000 1.500000 -0.000000", "v -0.000000 1.500000 0.000000"] * 3


def test_line_breaks_in_names_are_written_as_underscores():
    text = obj_text(_line_break_scene(), "x\nvn 0 0 0\f.mtl")
    assert text.splitlines()[0] == "mtllib x_vn 0 0 0_.mtl"
    assert [line for line in text.splitlines() if line.startswith("o ")] == [
        "o a_vn 1 2 3__f 1//1 1//1 1//1_v 9 9 9", "o b_vn 4 5 6_c"]
    assert vn_lines(text) == ["vn 0.000000 1.000000 0.000000"]
    assert len(text.splitlines()) == len(text.split("\n")) - 1


def test_every_line_break_of_splitlines_is_replaced():
    breaks = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) > 1}
    assert {chr(c) for c in obj_module._LINE_BREAKS} == breaks
    assert not any(c.isprintable() for c in breaks)  # what the writer tests first


def test_zero_triangle_mesh_writes_no_faces():
    text = obj_text(_zero_triangle_scene())
    assert_same_geometry(_zero_triangle_scene())
    objects, verts, normals, faces = read_obj(text)
    assert [(name, count) for name, _, count in objects] == [
        ("leaf:ä", 0), ("tri", 1), ("leaf:方法", 0), ("once", 0)]
    assert len(verts) == 9
    assert len(normals) == 1
    assert faces == [((3, 1), (4, 1), (5, 1))]
    assert [line for line in text.splitlines() if line.startswith("f ")] == [
        "f -3//1 -2//1 -1//1"]


def test_nodes_sharing_a_mesh_repeat_only_their_v_lines():
    # Four vertices, three distinct normal lines: 0.0 and -0.0 print apart.
    quad = literal_mesh(
        positions=[[0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1]],
        normals=[[0, 1, 0], [0, 1, 0], [-0.0, 1, 0], [0.6, 0.8, 0]],
        indices=[0, 1, 2, 0, 2, 3],
        material=0,
    )
    count = 3
    nodes = [SceneNode("forest", children=list(range(1, count + 1)))]
    nodes += [SceneNode(f"quad{i}", translation=(10.0 * i, 0.0, -1.5), mesh=0)
              for i in range(count)]
    text = obj_text(Scene(nodes, [quad], default_palette()))
    groups = text.split("o ")[1:]
    assert len(groups) == count
    faces = []
    for i, group in enumerate(groups):
        lines = group.splitlines()
        assert lines[0] == f"quad{i}"
        assert [line.split()[1] for line in lines if line.startswith("v ")] == [
            "%.6f" % (10.0 * i + x) for x in (0, 1, 1, 0)]
        faces.append([line for line in lines if line.startswith("f ")])
    assert faces == [["f -4//1 -3//1 -2//2", "f -4//1 -2//2 -1//3"]] * count
    normals = [
        "vn 0.000000 1.000000 0.000000",
        "vn -0.000000 1.000000 0.000000",
        "vn 0.600000 0.800000 0.000000",
    ]
    assert [vn_lines(group) for group in groups] == [normals] + [[]] * (count - 1)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_fixture_scenes_keep_their_geometry(name):
    assert_same_geometry(scene(name), "forest.mtl")


@pytest.mark.parametrize("seed", range(10))
def test_synth_scenes_keep_their_geometry(seed, tmp_path):
    synth.generate(seed, tmp_path)
    assert_same_geometry(build_scene(analyze(tmp_path)))


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_bench_scenes_keep_their_geometry(workload, tmp_path):
    plan = corpora.generate(workload, BENCH_SEED, tmp_path, repo=REPO)
    config = parse_config(corpora.RENDER_CONFIG[workload] or "")
    config.seed = plan.render_seed
    assert_same_geometry(build_scene(analyze(tmp_path), config), "scene.mtl")


def _slice_crossing_scene(pad: int) -> Scene:
    """Three triangle nodes: an ASCII name of ``pad`` characters, a
    non-ASCII name, and a long tail name that takes the text past
    two slices."""
    tri = triangle_scene().meshes[0]
    names = ["p" * pad, "leaf:ÄÖÜ.方法", "t" * (2 * obj_module._WRITE_SLICE)]
    nodes = [SceneNode("forest", children=[1, 2, 3])]
    nodes += [SceneNode(name, mesh=0) for name in names]
    return Scene(nodes, [tri], default_palette())


def test_export_bytes_equal_the_text_across_slices(tmp_path):
    special = "leaf:ÄÖÜ.方法"
    boundary = obj_module._WRITE_SLICE
    start = obj_text(_slice_crossing_scene(0), "forest.mtl").index(special)
    built = _slice_crossing_scene(boundary - 3 - start)
    text = obj_text(built, "forest.mtl")
    assert text.index(special) < boundary < text.index(special) + len(special)
    assert len(text.encode("utf-8")) > 2 * boundary
    obj_path, _ = export_obj(built, tmp_path / "forest.obj")
    assert obj_path.read_bytes() == text.encode("utf-8")


def test_export_never_holds_the_whole_text_encoded(tmp_path, monkeypatch):
    text = "v 1.000000 2.000000 3.000000\n" * (8 * obj_module._WRITE_SLICE // 29)
    monkeypatch.setattr(obj_module, "obj_text", lambda scene, mtl_name=None: text)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        obj_path, _ = export_obj(triangle_scene(), tmp_path / "forest.obj")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < len(text) // 2
    assert obj_path.read_bytes() == text.encode("utf-8")
