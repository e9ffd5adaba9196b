"""glTF 2.0 export.

Produces a single self-contained ``.gltf`` JSON file: all vertex and
index data live in one buffer embedded as a base64 data URI. Every
distinct mesh of the scene gets three accessors (POSITION, NORMAL,
indices), each backed by its own buffer view; nodes that share a mesh
reference the same glTF mesh. A view holds one mesh array's bytes as
they are: float32 VEC3 positions and normals, uint32 indices. POSITION
accessors carry exact component-wise min/max (``geometry.bounds``).
All chunks are multiples of four bytes, so views need no padding.

Nodes keep their scene names; a translation is emitted only when it
differs from the default, matching the glTF schema's minItems rules
(empty top-level arrays are omitted entirely).

The file is the text of ``json.dumps(doc, indent=2)`` plus a newline,
written by ``jsontext.json_text`` rather than by json's pure-Python
indenting encoder.
"""

from __future__ import annotations

import base64
from pathlib import Path

from ..errors import SceneTooLarge
from ..geometry import Scene, bounds
from .jsontext import json_text

_ARRAY_BUFFER = 34962
_ELEMENT_ARRAY_BUFFER = 34963
_FLOAT = 5126
_UNSIGNED_INT = 5125
_MAX_COUNT = 0xFFFFFFFF


def build_gltf(scene: Scene) -> dict:
    """Assemble the glTF document as a plain dict (JSON-ready)."""
    buffer = bytearray()
    buffer_views: list[dict] = []
    accessors: list[dict] = []
    meshes_json: list[dict] = []

    def add_view(data: bytes, target: int) -> int:
        buffer_views.append(
            {
                "buffer": 0,
                "byteOffset": len(buffer),
                "byteLength": len(data),
                "target": target,
            }
        )
        buffer.extend(data)
        return len(buffer_views) - 1

    for mesh in scene.meshes:
        vertex_count = mesh.vertex_count
        index_count = len(mesh.indices)
        if vertex_count > _MAX_COUNT or index_count > _MAX_COUNT:
            raise SceneTooLarge(max(vertex_count, index_count))
        lo, hi = bounds(mesh)
        accessors.append(
            {
                "bufferView": add_view(mesh.positions.tobytes(), _ARRAY_BUFFER),
                "componentType": _FLOAT,
                "count": vertex_count,
                "type": "VEC3",
                "min": lo,
                "max": hi,
            }
        )
        position_accessor = len(accessors) - 1
        accessors.append(
            {
                "bufferView": add_view(mesh.normals.tobytes(), _ARRAY_BUFFER),
                "componentType": _FLOAT,
                "count": vertex_count,
                "type": "VEC3",
            }
        )
        accessors.append(
            {
                "bufferView": add_view(mesh.indices.tobytes(), _ELEMENT_ARRAY_BUFFER),
                "componentType": _UNSIGNED_INT,
                "count": index_count,
                "type": "SCALAR",
            }
        )
        meshes_json.append(
            {
                "primitives": [
                    {
                        "attributes": {
                            "POSITION": position_accessor,
                            "NORMAL": position_accessor + 1,
                        },
                        "indices": position_accessor + 2,
                        "material": mesh.material,
                    }
                ]
            }
        )

    nodes_json = []
    for node in scene.nodes:
        entry: dict = {"name": node.name}
        if node.mesh is not None:
            entry["mesh"] = node.mesh
        if node.translation != (0.0, 0.0, 0.0):
            entry["translation"] = [float(v) for v in node.translation]
        if node.children:
            entry["children"] = list(node.children)
        nodes_json.append(entry)

    doc: dict = {
        "asset": {"generator": "codeforest", "version": "2.0"},
        "scene": 0,
        "scenes": [{"nodes": [scene.root]}],
        "nodes": nodes_json,
    }
    if meshes_json:
        doc["meshes"] = meshes_json
        doc["materials"] = [_material_json(m) for m in scene.materials]
        doc["accessors"] = accessors
        doc["bufferViews"] = buffer_views
        doc["buffers"] = [
            {
                "byteLength": len(buffer),
                "uri": "data:application/octet-stream;base64,"
                + base64.b64encode(bytes(buffer)).decode("ascii"),
            }
        ]
    return doc


def _material_json(material) -> dict:
    entry = {
        "name": material.name,
        "pbrMetallicRoughness": {
            "baseColorFactor": [float(c) for c in material.base_color],
            "metallicFactor": 0.0,
            "roughnessFactor": 1.0,
        },
    }
    if material.base_color[3] < 1.0:
        entry["alphaMode"] = "BLEND"
    return entry


def export_gltf(scene: Scene, path: str | Path) -> None:
    Path(path).write_text(json_text(build_gltf(scene)) + "\n", encoding="utf-8")
