"""Tests for the Maya MEL exporter."""

import re
from collections import Counter

import pytest

from codeforest import geometry
from codeforest.exporters import mel
from codeforest.exporters.mel import export_mel, mel_text
from codeforest.geometry import Scene, SceneNode, default_palette
from codeforest.pipeline import analyze, build_scene

from conftest import CORPUS_NAMES, literal_mesh, scene, vec3
from oracles import mel_creations, mel_names

_NUM_TRIPLE = r"-p (-?\d+\.\d+) (-?\d+\.\d+) (-?\d+\.\d+)"


def test_empty_scene_is_just_the_footer():
    sc = Scene([SceneNode("forest")], [], default_palette())
    assert mel_text(sc) == "select -cl;\n"


def test_script_frame():
    lines = mel_text(scene("two_classes")).splitlines()
    assert lines[0] == "// forest scene"
    assert lines[1] == "string $n[];"
    assert lines[-1] == "select -cl;"


def test_two_classes_primitive_census():
    text = mel_text(scene("two_classes"))
    counts = Counter(mel_creations(text))
    # 1 island, 2 trunks, 2 canopies + 5 leaves, 1 channel
    assert counts == {
        "polyCone": 1,
        "polyCylinder": 2,
        "polySphere": 7,
        "polyCreateFacet": 1,
    }


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_one_creation_and_rename_per_mesh_node(name):
    built = scene(name)
    text = mel_text(built)
    mesh_nodes = [n for n in built.nodes if n.mesh is not None]
    assert len(mel_creations(text)) == len(mesh_nodes)
    assert len(mel_names(text)) == len(mesh_nodes)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_bounds_are_taken_once_per_mesh(monkeypatch, name):
    # Leaves of one kind share a mesh; their bounds are computed once.
    built = scene(name)
    calls = []

    def counting_bounds(mesh):
        calls.append(mesh)
        return geometry.bounds(mesh)

    monkeypatch.setattr(mel, "bounds", counting_bounds)
    mel_text(built)
    meshes = [
        n.mesh for n in built.nodes
        if n.mesh is not None and not n.name.startswith("channel:")
    ]
    assert len(set(meshes)) < len(meshes)
    assert len(calls) == len(set(meshes))


def test_names_sanitized_and_unique():
    names = mel_names(mel_text(scene("two_classes")))
    assert "island_" in names
    assert "trunk__Useraaa" in names
    assert "channel_Useraaa__Ownerbbb" in names
    assert len(set(names)) == len(names)
    for n in names:
        assert re.fullmatch(r"[A-Za-z0-9_]+", n)


def _mel_names_of(*names: str) -> list[str]:
    mesh = literal_mesh(
        positions=[[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        normals=[[0, 1, 0]] * 3,
        indices=[0, 1, 2],
        material=1,
    )
    nodes = [SceneNode("forest", children=list(range(1, len(names) + 1)))]
    nodes += [SceneNode(name, mesh=0) for name in names]
    return mel_names(mel_text(Scene(nodes, [mesh], default_palette())))


def test_name_collisions_get_numeric_suffixes():
    names = _mel_names_of("trunk:a.b", "trunk:a:b", "trunk:a_b")
    assert names == ["trunk_a_b", "trunk_a_b_2", "trunk_a_b_3"]


def test_suffixed_name_never_repeats_a_later_base():
    names = _mel_names_of("trunk:a.b", "trunk:a_b", "trunk:a_b_2", "trunk:a:b")
    assert names == ["trunk_a_b", "trunk_a_b_2", "trunk_a_b_2_2", "trunk_a_b_3"]


def test_java_names_that_sanitize_alike_stay_unique(tmp_path):
    (tmp_path / "A.java").write_text(
        "package p; class A { void x_y() {} void x_y_2() {} } "
        "class A_x { void y() {} }",
        encoding="utf-8",
    )
    names = mel_names(mel_text(build_scene(analyze(tmp_path))))
    assert len(set(names)) == len(names)
    assert names[-1] == "leaf_p_A_x_y_3"


def test_channels_are_traced_in_place():
    text = mel_text(scene("two_classes"))
    blocks = text.splitlines()
    for i, line in enumerate(blocks):
        if "polyCreateFacet" not in line:
            continue
        # a facet is renamed but never moved: its points are absolute
        assert blocks[i + 1].startswith("rename ")
        assert not blocks[i + 2].startswith("move ")
    moves = [ln for ln in blocks if ln.startswith("move -a ")]
    facets = mel_creations(text).count("polyCreateFacet")
    assert len(moves) == len(mel_creations(text)) - facets


def test_channel_outline_points_match_ribbon_edges():
    built = scene("multipkg")  # its one channel hangs off the root, unshifted
    (channel_node,) = [n for n in built.nodes if n.name.startswith("channel:")]
    mesh = built.meshes[channel_node.mesh]
    text = mel_text(built)
    (facet_line,) = [ln for ln in text.splitlines() if "polyCreateFacet" in ln]
    points = re.findall(_NUM_TRIPLE, facet_line)
    half = mesh.vertex_count // 2
    positions = vec3(mesh.positions)
    expected = [positions[2 * i] for i in range(half)]
    expected += [positions[2 * i + 1] for i in range(half - 1, -1, -1)]
    assert len(points) == len(expected)
    for got, want in zip(points, expected):
        assert [float(v) for v in got] == pytest.approx(
            [float(v) for v in want], abs=1e-6
        )


def test_island_cone_and_sphere_sizes():
    built = scene("two_classes")
    text = mel_text(built)
    lines = text.splitlines()
    (cone,) = [ln for ln in lines if "polyCone" in ln]
    island_mesh = built.meshes[[n for n in built.nodes if n.name == "island:"][0].mesh]
    r = float(re.search(r"-r (-?\d+\.\d+)", cone).group(1))
    h = float(re.search(r"-h (-?\d+\.\d+)", cone).group(1))
    xs = vec3(island_mesh.positions)[:, 0]
    ys = vec3(island_mesh.positions)[:, 1]
    assert r == pytest.approx(float(xs.max() - xs.min()) / 2.0, abs=1e-6)
    assert h == pytest.approx(max(float(ys.max() - ys.min()), 0.1), abs=1e-6)
    # spheres take their radius from the vertical extent
    sphere_rs = [
        float(re.search(r"-r (-?\d+\.\d+)", ln).group(1))
        for ln in lines
        if "polySphere" in ln
    ]
    assert all(r > 0 for r in sphere_rs)


def test_flat_island_keeps_minimum_height():
    mesh = literal_mesh(
        positions=[[0, 0, 0], [1, 0, 0], [0, 0, 1]],
        normals=[[0, 1, 0]] * 3,
        indices=[0, 1, 2],
        material=0,
    )
    sc = Scene(
        [SceneNode("forest", children=[1]), SceneNode("island:flat", mesh=0)],
        [mesh],
        default_palette(),
    )
    (cone,) = [ln for ln in mel_text(sc).splitlines() if "polyCone" in ln]
    assert "-h 0.100000" in cone


def test_export_round_trip(tmp_path):
    path = tmp_path / "forest.mel"
    assert export_mel(scene("two_classes"), str(path)) == (path,)
    assert path.read_text(encoding="utf-8") == mel_text(scene("two_classes"))
