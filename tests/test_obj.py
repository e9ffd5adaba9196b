"""Tests for the Wavefront OBJ/MTL exporter."""

import numpy as np
import pytest

from codeforest.exporters.obj import export_obj, mtl_text, obj_text
from codeforest.geometry import (
    Material,
    Mesh,
    Scene,
    SceneNode,
    default_palette,
    world_transforms,
)

from conftest import CORPUS_NAMES, scene
from oracles import read_obj


def triangle_scene() -> Scene:
    mesh = Mesh(
        positions=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float32),
        normals=np.array([[0, 1, 0]] * 3, dtype=np.float32),
        indices=np.array([0, 1, 2], dtype=np.uint32),
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
            "vn 0.000000 1.000000 0.000000",
            "vn 0.000000 1.000000 0.000000",
            "f 1//1 2//2 3//3",
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
    assert len(normals) == len(verts)
    assert len(faces) == sum(m.triangle_count for m in placed)
    for corners in faces:
        assert len(corners) == 3
        for v, n in corners:
            assert v == n
            assert 1 <= v <= len(verts)


def test_vertices_are_world_baked():
    built = scene("multipkg")
    _, verts, _, _ = read_obj(obj_text(built))
    transforms = world_transforms(built)
    expected = []
    for idx, node in enumerate(built.nodes):
        if node.mesh is None:
            continue
        tx, ty, tz = transforms[idx]
        for x, y, z in built.meshes[node.mesh].positions:
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
