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
written by ``gltf_text`` rather than by json's pure-Python indenting
encoder. The four long arrays (nodes, meshes, accessors, buffer views)
hold records of a few fixed shapes, so each record is written through
one ``%`` template picked by its shape; the short top-level values go
through the generic ``jsontext.json_text``.
"""

from __future__ import annotations

import base64
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from ..errors import SceneTooLarge
from ..geometry import Scene, bounds
from .jsontext import json_float, json_text

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
        "scenes": [{"nodes": [0]}],
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


# Records sit at depth 2 of the document: four spaces before the brace,
# six before a key, eight before a list item.
_ITEM = ",\n        "

_NODE_FIELDS = {
    "mesh": ',\n      "mesh": %d',
    "translation": ',\n      "translation": [\n        %s,\n        %s,\n        %s\n      ]',
    "children": ',\n      "children": [\n        %s\n      ]',
}

# One template per node shape, keyed by the node's keys after "name".
_NODE = {
    keys: '{\n      "name": %s' + "".join(map(_NODE_FIELDS.get, keys)) + "\n    }"
    for n in range(len(_NODE_FIELDS) + 1)
    for keys in combinations(_NODE_FIELDS, n)
}

_ACCESSOR = (
    '{\n      "bufferView": %d,\n      "componentType": %d,\n      "count": %d,'
    '\n      "type": %s'
)
_PLAIN_ACCESSOR = _ACCESSOR + "\n    }"
_BOUNDED_ACCESSOR = _ACCESSOR + (
    ',\n      "min": [\n        %s,\n        %s,\n        %s\n      ],'
    '\n      "max": [\n        %s,\n        %s,\n        %s\n      ]\n    }'
)

_MESH = (
    '{\n      "primitives": [\n        {\n          "attributes": {'
    '\n            "POSITION": %d,\n            "NORMAL": %d\n          },'
    '\n          "indices": %d,\n          "material": %d\n        }\n      ]\n    }'
)

_VIEW = (
    '{\n      "buffer": %d,\n      "byteOffset": %d,\n      "byteLength": %d,'
    '\n      "target": %d\n    }'
)


def _node_rows(nodes: list[dict]) -> list[str]:
    rows = []
    for node in nodes:
        args = [_quote(node["name"])]
        mesh = node.get("mesh")
        if mesh is not None:
            args.append(mesh)
        translation = node.get("translation")
        if translation is not None:
            args += map(json_float, translation)
        children = node.get("children")
        if children is not None:
            args.append(_ITEM.join(map(int.__repr__, children)))
        rows.append(_NODE[tuple(node)[1:]] % tuple(args))
    return rows


def _accessor_rows(accessors: list[dict]) -> list[str]:
    rows = []
    for acc in accessors:
        if "min" in acc:
            rows.append(_BOUNDED_ACCESSOR % (
                acc["bufferView"], acc["componentType"], acc["count"],
                _quote(acc["type"]), *map(json_float, acc["min"]),
                *map(json_float, acc["max"])))
        else:
            rows.append(_PLAIN_ACCESSOR % (
                acc["bufferView"], acc["componentType"], acc["count"],
                _quote(acc["type"])))
    return rows


def _mesh_rows(meshes: list[dict]) -> list[str]:
    rows = []
    for mesh in meshes:
        (primitive,) = mesh["primitives"]
        attributes = primitive["attributes"]
        rows.append(_MESH % (attributes["POSITION"], attributes["NORMAL"],
                             primitive["indices"], primitive["material"]))
    return rows


def _view_rows(views: list[dict]) -> list[str]:
    return [_VIEW % (view["buffer"], view["byteOffset"], view["byteLength"],
                     view["target"]) for view in views]


_RECORDS = {
    "nodes": _node_rows,
    "meshes": _mesh_rows,
    "accessors": _accessor_rows,
    "bufferViews": _view_rows,
}


def gltf_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` for a document ``build_gltf`` made."""
    rows = []
    for key, value in doc.items():
        records = _RECORDS.get(key)
        if records is None:
            # JSON strings hold no raw newline, so this only indents.
            text = json_text(value).replace("\n", "\n  ")
        else:
            text = "[\n    " + ",\n    ".join(records(value)) + "\n  ]"
        rows.append(_quote(key) + ": " + text)
    return "{\n  " + ",\n  ".join(rows) + "\n}"


def export_gltf(scene: Scene, path: str | Path) -> None:
    Path(path).write_text(gltf_text(build_gltf(scene)) + "\n", encoding="utf-8")
