"""Tests for the Wavefront OBJ/MTL exporter."""

import re
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
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
from oracles import obj_corners, obj_text_per_corner, read_obj


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


# A name that holds a line of its own changes the file's numbering.
_NUMBERED_LINE = re.compile(r"\n(v|vn|f) ")


@settings(max_examples=200, deadline=None)
@given(random_scenes(), st.none() | st.text(max_size=8))
@example(_zero_triangle_scene(), "forest.mtl")
def test_obj_text_equals_the_per_corner_writer(built, mtl_name):
    names = [node.name for node in built.nodes] + [mtl_name or ""]
    assume(not any(_NUMBERED_LINE.search(name) for name in names))
    assert_same_geometry(built, mtl_name)


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
