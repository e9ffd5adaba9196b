"""Tests for the glTF 2.0 exporter."""

import base64
import json
import math

import pytest
from hypothesis import example, given, settings

from codeforest.errors import SceneTooLarge
from codeforest.exporters import gltf as gltf_module
from codeforest.exporters.gltf import build_gltf, export_gltf
from codeforest.geometry import MAT_CANOPY, Mesh, Scene, SceneNode, _sphere, default_palette

from conftest import CORPUS_NAMES, flat_mesh, random_scenes, scene, vec3
from oracles import check_gltf, gltf_doc, gltf_reachable_nodes, json_float

FULL_KEYS = [
    "asset",
    "scene",
    "scenes",
    "nodes",
    "meshes",
    "materials",
    "accessors",
    "bufferViews",
    "buffers",
]


def empty_scene() -> Scene:
    return Scene([SceneNode("forest")], [], default_palette())


def document(built: Scene) -> dict:
    return json.loads(build_gltf(built))


def test_top_level_key_order():
    doc = document(scene("two_classes"))
    assert list(doc) == FULL_KEYS


def test_asset_block():
    doc = document(scene("two_classes"))
    assert doc["asset"] == {"generator": "codeforest", "version": "2.0"}
    assert doc["scene"] == 0
    assert doc["scenes"] == [{"nodes": [0]}]


def test_empty_scene_omits_buffer_keys():
    doc = document(empty_scene())
    assert list(doc) == ["asset", "scene", "scenes", "nodes"]
    assert doc["nodes"] == [{"name": "forest"}]
    assert check_gltf(doc) == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_structural_check_passes(name):
    assert check_gltf(document(scene(name))) == []


def test_every_node_reachable_from_root():
    doc = document(build := scene("two_classes"))
    assert len(doc["nodes"]) == len(build.nodes) == 14
    assert gltf_reachable_nodes(doc) == 14


def test_default_transform_keys_omitted():
    sc = empty_scene()
    sc.nodes[0].children.append(1)
    sc.nodes.append(SceneNode("offset", translation=(1.0, 2.0, 3.0)))
    doc = document(sc)
    root, offset = doc["nodes"]
    assert "translation" not in root
    assert root["children"] == [1]
    assert offset["translation"] == [1.0, 2.0, 3.0]
    assert "scale" not in root and "scale" not in offset
    assert "children" not in offset


def arrays(doc: dict) -> list[bytes]:
    """Each accessor's bytes, read through its buffer view."""
    prefix = "data:application/octet-stream;base64,"
    blob = base64.b64decode(doc["buffers"][0]["uri"][len(prefix):])
    out = []
    for acc in doc["accessors"]:
        view = doc["bufferViews"][acc["bufferView"]]
        size = 4 if acc["type"] == "SCALAR" else 12
        assert view["byteLength"] == size * acc["count"]
        out.append(blob[view["byteOffset"]:view["byteOffset"] + view["byteLength"]])
    return out


def references(doc: dict) -> list[tuple[int, int, int | None]]:
    """Each glTF mesh's (POSITION, NORMAL, indices) accessor numbers;
    indices is None for a mesh of points."""
    refs = []
    for entry in doc.get("meshes", []):
        (prim,) = entry["primitives"]
        assert list(prim["attributes"]) == ["POSITION", "NORMAL"]
        assert ("indices" in prim) != (prim.get("mode") == 0)
        refs.append((*prim["attributes"].values(), prim.get("indices")))
    return refs


def check_one_accessor_per_array(built: Scene) -> None:
    """Every mesh's arrays decode to its ``Mesh`` arrays, and a mesh
    without triangles has no indices; accessors are numbered in
    first-use order, accessor ``k`` uses view ``k``, each serves one
    role, and no two of one role hold equal bytes."""
    doc = document(built)
    assert check_gltf(doc) == []
    if not built.meshes:
        assert "accessors" not in doc
        return
    data = arrays(doc)
    refs = references(doc)
    assert len(refs) == len(built.meshes)
    roles: dict[int, int] = {}
    for mesh, row in zip(built.meshes, refs):
        assert [b"" if k is None else data[k] for k in row] == [
            mesh.positions.tobytes(), mesh.normals.tobytes(), mesh.indices.tobytes()]
        for role, k in enumerate(row):
            assert k is None or roles.setdefault(k, role) == role
    assert list(roles) == list(range(len(doc["accessors"])))  # in first-use order
    assert [acc["bufferView"] for acc in doc["accessors"]] == list(range(len(data)))
    assert len(doc["bufferViews"]) == len(data)
    assert len(set(zip(roles.values(), data))) == len(data)


def test_primitive_wiring_follows_mesh_order():
    # Each primitive refers to accessors that hold its mesh's arrays;
    # equal arrays share one, so the calls fixture needs fewer than
    # three accessors per mesh.
    built = scene("calls")
    doc = document(built)
    check_one_accessor_per_array(built)
    assert [entry["primitives"][0]["material"] for entry in doc["meshes"]] == [
        mesh.material for mesh in built.meshes]
    assert len(doc["accessors"]) < 3 * len(built.meshes)


def test_position_min_max_match_float32_data():
    built = scene("two_classes")
    doc = document(built)
    for mesh, (position, normal, indices) in zip(built.meshes, references(doc), strict=True):
        acc = doc["accessors"][position]
        f32 = vec3(mesh.positions)
        assert acc["min"] == [float(v) for v in f32.min(axis=0)]
        assert acc["max"] == [float(v) for v in f32.max(axis=0)]
        assert acc["count"] == mesh.vertex_count
        # normal and index accessors carry no bounds
        assert "min" not in doc["accessors"][normal]
        assert "min" not in doc["accessors"][indices]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_one_accessor_per_distinct_array_on_fixtures(name):
    check_one_accessor_per_array(scene(name))


def test_a_mesh_without_triangles_is_points_without_indices():
    # glTF forbids a buffer view of 0 bytes and an accessor of count 0.
    built = _odd_scene()
    doc = document(built)
    assert check_gltf(doc) == []
    assert doc["meshes"][1] == {"primitives": [
        {"attributes": {"POSITION": 3, "NORMAL": 4}, "material": 3, "mode": 0}]}


def test_unit_sphere_keeps_position_and_normal_apart():
    # A sphere of radius 1.0 has positions bitwise equal to its normals;
    # the role keeps the NORMAL off the POSITION accessor and its bounds.
    sphere = _sphere(1.0, 8, MAT_CANOPY)
    assert sphere.positions.tobytes() == sphere.normals.tobytes()
    built = Scene([SceneNode("forest", mesh=0)], [sphere], default_palette())
    doc = document(built)
    assert references(doc) == [(0, 1, 2)]
    position, normal, _ = doc["accessors"]
    assert "min" in position and "max" in position
    assert "min" not in normal and "max" not in normal
    check_one_accessor_per_array(built)
    assert check_gltf(doc) == []


def test_translucent_material_marked_blend():
    doc = document(scene("two_classes"))
    materials = doc["materials"]
    names = [m["name"] for m in materials]
    assert names == [m.name for m in default_palette()]
    canopy = materials[names.index("canopy")]
    assert canopy["alphaMode"] == "BLEND"
    assert canopy["pbrMetallicRoughness"]["baseColorFactor"][3] == 0.35
    island = materials[names.index("island")]
    assert "alphaMode" not in island


def test_single_embedded_buffer():
    doc = document(scene("calls"))
    (buf,) = doc["buffers"]
    prefix = "data:application/octet-stream;base64,"
    assert buf["uri"].startswith(prefix)
    raw = base64.b64decode(buf["uri"][len(prefix):])
    assert len(raw) == buf["byteLength"]
    assert buf["byteLength"] % 4 == 0
    for view in doc["bufferViews"]:
        assert view["buffer"] == 0
        assert view["byteOffset"] % 4 == 0
        assert view["target"] in (34962, 34963)


def compact(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def test_export_writes_compact_json(tmp_path):
    path = tmp_path / "out.gltf"
    assert export_gltf(scene("two_classes"), str(path)) == (path,)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    assert json.loads(text) == gltf_doc(scene("two_classes"))
    assert text == compact(gltf_doc(scene("two_classes"))) + "\n"


def test_export_looks_up_build_gltf_when_called(tmp_path, monkeypatch):
    # The benchmark's trace wraps this module attribute for its
    # exporters.gltf.build span; a call bound at import time bypasses it.
    text = build_gltf(empty_scene()).replace('"forest"', '"patched"')
    monkeypatch.setattr(gltf_module, "build_gltf", lambda built: text)
    path = tmp_path / "out.gltf"
    export_gltf(scene("two_classes"), path)
    assert path.read_text(encoding="utf-8") == text + "\n"


def _odd_scene() -> Scene:
    """Every node shape, a mesh without triangles, a root named with
    quotes, a backslash and a control character, and translations
    that are zero, ``-0.0`` or not finite."""
    tri = flat_mesh([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                    [0.0, 1.0, 0.0] * 3, [0, 1, 2])
    bare = flat_mesh([-0.0, 1.0, 2.0] * 2, [0.0, 1.0, 0.0] * 2, [], material=3)
    nodes = [
        SceneNode('f"o\\r\x01st', children=[1, 2, 3]),
        SceneNode("leaf:方法", translation=(-0.0, 0.0, -0.0), mesh=1),
        SceneNode("tree:\U0001f332", translation=(math.inf, -math.inf, math.nan),
                  children=[5, 6]),
        SceneNode("tri", translation=(1.0, 2.0, 3.0), mesh=0, children=[7]),
        SceneNode("empty"),
        SceneNode("x", translation=(0.5, 0.0, 0.0), mesh=0, children=[]),
        SceneNode("y", translation=(1e-300, -1e300, 5e-324)),
        SceneNode("z", mesh=1, children=[4]),
    ]
    return Scene(nodes, [tri, bare], default_palette())


@settings(max_examples=200, deadline=None)
@given(random_scenes())
@example(_odd_scene())
@example(empty_scene())
def test_gltf_text_equals_json_dumps(built):
    assert build_gltf(built) == compact(gltf_doc(built))


@settings(max_examples=100, deadline=None)
@given(random_scenes())
@example(_odd_scene())
@example(empty_scene())
def test_one_accessor_per_distinct_array(built):
    check_one_accessor_per_array(built)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_gltf_text_equals_json_dumps_on_fixtures(name):
    assert build_gltf(scene(name)) == compact(gltf_doc(scene(name)))


@pytest.mark.parametrize("translation", [
    (1, 2, 3),
    (-0.0, 0, -7),
    (0.1, -1e-300, 5e-324),
    (math.nan, 1.0, 2),
    (1.0, math.inf, 2.0),
    (0, 0.5, -math.inf),
    (math.nan, math.inf, -math.inf),
], ids=["ints", "-0.0 and ints", "small", "nan", "inf", "-inf", "none finite"])
def test_translation_row_spells_each_value_as_json_float(translation):
    # Each value is written as a float, as json.dumps writes it.
    sc = Scene([SceneNode("forest", translation=translation)], [], default_palette())
    expected = '"translation":[%s]' % ",".join(json_float(float(v)) for v in translation)
    assert expected in build_gltf(sc)


def test_oversized_mesh_rejected_before_buffering():
    # Ranges fake 2**32 + 2 vertices without allocating them; a range
    # has no bytes to buffer, so reaching the buffer raises otherwise.
    huge = range(2**32 + 2)
    mesh = Mesh(huge, huge, range(3), material=0)
    sc = Scene([SceneNode("forest", mesh=0)], [mesh], default_palette())
    with pytest.raises(SceneTooLarge):
        build_gltf(sc)


def test_document_is_deterministic():
    assert build_gltf(scene("multipkg")) == build_gltf(scene("multipkg"))
