"""Tests for the glTF 2.0 exporter."""

import base64
import json

import pytest

from codeforest.errors import SceneTooLarge
from codeforest.exporters.gltf import build_gltf, export_gltf
from codeforest.geometry import Mesh, Scene, SceneNode, default_palette

from conftest import CORPUS_NAMES, scene, vec3
from oracles import check_gltf, gltf_reachable_nodes

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


def test_top_level_key_order():
    doc = build_gltf(scene("two_classes"))
    assert list(doc) == FULL_KEYS


def test_asset_block():
    doc = build_gltf(scene("two_classes"))
    assert doc["asset"] == {"generator": "codeforest", "version": "2.0"}
    assert doc["scene"] == 0
    assert doc["scenes"] == [{"nodes": [0]}]


def test_empty_scene_omits_buffer_keys():
    doc = build_gltf(empty_scene())
    assert list(doc) == ["asset", "scene", "scenes", "nodes"]
    assert doc["nodes"] == [{"name": "forest"}]
    assert check_gltf(doc) == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_structural_check_passes(name):
    assert check_gltf(build_gltf(scene(name))) == []


def test_every_node_reachable_from_root():
    doc = build_gltf(build := scene("two_classes"))
    assert len(doc["nodes"]) == len(build.nodes) == 14
    assert gltf_reachable_nodes(doc) == 14


def test_default_transform_keys_omitted():
    sc = empty_scene()
    sc.nodes[0].children.append(1)
    sc.nodes.append(SceneNode("offset", translation=(1.0, 2.0, 3.0)))
    doc = build_gltf(sc)
    root, offset = doc["nodes"]
    assert "translation" not in root
    assert root["children"] == [1]
    assert offset["translation"] == [1.0, 2.0, 3.0]
    assert "scale" not in root and "scale" not in offset
    assert "children" not in offset


def test_primitive_wiring_follows_mesh_order():
    built = scene("calls")
    doc = build_gltf(built)
    for i, (mesh, entry) in enumerate(zip(built.meshes, doc["meshes"])):
        (prim,) = entry["primitives"]
        assert prim["attributes"] == {"POSITION": 3 * i, "NORMAL": 3 * i + 1}
        assert prim["indices"] == 3 * i + 2
        assert prim["material"] == mesh.material


def test_position_min_max_match_float32_data():
    built = scene("two_classes")
    doc = build_gltf(built)
    for i, mesh in enumerate(built.meshes):
        acc = doc["accessors"][3 * i]
        f32 = vec3(mesh.positions)
        assert acc["min"] == [float(v) for v in f32.min(axis=0)]
        assert acc["max"] == [float(v) for v in f32.max(axis=0)]
        assert acc["count"] == mesh.vertex_count
    # index accessors carry no bounds
    assert "min" not in doc["accessors"][2]


def test_translucent_material_marked_blend():
    doc = build_gltf(scene("two_classes"))
    materials = doc["materials"]
    names = [m["name"] for m in materials]
    assert names == [m.name for m in default_palette()]
    canopy = materials[names.index("canopy")]
    assert canopy["alphaMode"] == "BLEND"
    assert canopy["pbrMetallicRoughness"]["baseColorFactor"][3] == 0.35
    island = materials[names.index("island")]
    assert "alphaMode" not in island


def test_single_embedded_buffer():
    doc = build_gltf(scene("calls"))
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


def test_export_writes_pretty_json(tmp_path):
    path = tmp_path / "out.gltf"
    export_gltf(scene("two_classes"), path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    assert json.loads(text) == build_gltf(scene("two_classes"))
    assert text == json.dumps(build_gltf(scene("two_classes")), indent=2) + "\n"


def test_oversized_mesh_rejected_before_buffering():
    # Ranges fake 2**32 + 2 vertices without allocating them; a range
    # has no bytes to buffer, so reaching the buffer raises otherwise.
    huge = range(2**32 + 2)
    mesh = Mesh(huge, huge, range(3), material=0)
    sc = Scene([SceneNode("forest", mesh=0)], [mesh], default_palette())
    with pytest.raises(SceneTooLarge):
        build_gltf(sc)


def test_document_is_deterministic():
    a = json.dumps(build_gltf(scene("multipkg")))
    b = json.dumps(build_gltf(scene("multipkg")))
    assert a == b
