"""Tests for the glTF 2.0 exporter."""

import base64
import json
import math

import pytest
from hypothesis import example, given, settings

from codeforest.errors import SceneTooLarge
from codeforest.exporters import gltf as gltf_module
from codeforest.exporters.gltf import build_gltf, export_gltf, json_float
from codeforest.geometry import Mesh, Scene, SceneNode, default_palette

from conftest import CORPUS_NAMES, flat_mesh, random_scenes, scene, vec3
from oracles import check_gltf, gltf_doc, gltf_reachable_nodes

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


def test_primitive_wiring_follows_mesh_order():
    built = scene("calls")
    doc = document(built)
    for i, (mesh, entry) in enumerate(zip(built.meshes, doc["meshes"])):
        (prim,) = entry["primitives"]
        assert prim["attributes"] == {"POSITION": 3 * i, "NORMAL": 3 * i + 1}
        assert prim["indices"] == 3 * i + 2
        assert prim["material"] == mesh.material


def test_position_min_max_match_float32_data():
    built = scene("two_classes")
    doc = document(built)
    for i, mesh in enumerate(built.meshes):
        acc = doc["accessors"][3 * i]
        f32 = vec3(mesh.positions)
        assert acc["min"] == [float(v) for v in f32.min(axis=0)]
        assert acc["max"] == [float(v) for v in f32.max(axis=0)]
        assert acc["count"] == mesh.vertex_count
    # index accessors carry no bounds
    assert "min" not in doc["accessors"][2]


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


def test_export_writes_pretty_json(tmp_path):
    path = tmp_path / "out.gltf"
    export_gltf(scene("two_classes"), path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    assert json.loads(text) == gltf_doc(scene("two_classes"))
    assert text == json.dumps(gltf_doc(scene("two_classes")), indent=2) + "\n"


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
    assert build_gltf(built) == json.dumps(gltf_doc(built), indent=2)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_gltf_text_equals_json_dumps_on_fixtures(name):
    assert build_gltf(scene(name)) == json.dumps(gltf_doc(scene(name)), indent=2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 1e308, 0.1])
def test_gltf_json_float_spells_like_json(value):
    assert json_float(value) == json.dumps(value)


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
    # Finite translations fill a %r template; the rest go through
    # json_float. Both must write what json_float writes for each value.
    sc = Scene([SceneNode("forest", translation=translation)], [], default_palette())
    expected = gltf_module._TRANSLATION % tuple(json_float(float(v)) for v in translation)
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
