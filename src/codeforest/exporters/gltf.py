"""glTF 2.0 export.

Produces a single self-contained ``.gltf`` JSON file: all vertex and
index data live in one buffer embedded as a base64 data URI. Each
scene mesh becomes one glTF mesh, and nodes that share a mesh
reference the same glTF mesh. Its primitive refers to three arrays:
POSITION, NORMAL and indices. A mesh without triangles has no indices
and is drawn as points (mode 0), since glTF forbids an empty buffer
view and an accessor of count 0. Every distinct array gets one accessor,
backed by its own buffer view, so accessor ``k`` uses view ``k``; the
arrays are numbered in first-use order, keyed by their role and their
bytes, and every later primitive with an equal array refers to the
same accessor (channels of one point count share their normals and
indices, for one). The role is part of the key: a sphere of radius 1
has positions bitwise equal to its normals, but a NORMAL accessor
carries no min/max and a POSITION accessor must. A view holds one
array's bytes as they are: float32 VEC3 positions and normals, uint32
indices. POSITION accessors carry exact component-wise min/max
(``geometry.bounds``). All chunks are multiples of four bytes, so
views need no padding.

Nodes keep their scene names; a translation is emitted only when it
differs from the default, matching the glTF schema's minItems rules
(empty top-level arrays are omitted entirely).

``build_gltf`` writes the document's text straight from the scene, laid
out exactly as ``json.dumps(doc, indent=2)`` lays it out, without
building the document first: each record is one ``%`` template filled
from a mesh, node or material. A node row is its name plus whichever of
``mesh``, ``translation`` and ``children`` it has, in that order.
"""

from __future__ import annotations

import base64
from json.encoder import encode_basestring_ascii as _quote
from math import inf
from pathlib import Path

from ..errors import SceneTooLarge
from ..geometry import Scene, bounds

_ARRAY_BUFFER = 34962
_ELEMENT_ARRAY_BUFFER = 34963
_FLOAT = 5126
_UNSIGNED_INT = 5125
_MAX_COUNT = 0xFFFFFFFF

# Records sit at depth 2 of the document: four spaces before the brace,
# six before a key, eight before a list item.
_ITEM = ",\n        "
_ROW = ",\n    "

_TRANSLATION = ',\n      "translation": [\n        %s,\n        %s,\n        %s\n      ]'
# The same for three finite floats, whose repr is their JSON text.
_FINITE_TRANSLATION = _TRANSLATION.replace("%s", "%r")

_ACCESSOR = '{\n      "bufferView": %d,\n      "componentType": %d,\n      "count": %d'
_POSITION = _ACCESSOR + (
    ',\n      "type": "VEC3",'
    '\n      "min": [\n        %s,\n        %s,\n        %s\n      ],'
    '\n      "max": [\n        %s,\n        %s,\n        %s\n      ]\n    }'
)
_NORMAL = _ACCESSOR + ',\n      "type": "VEC3"\n    }'
_INDICES = _ACCESSOR + ',\n      "type": "SCALAR"\n    }'

_PRIMITIVE = (
    '{\n      "primitives": [\n        {\n          "attributes": {'
    '\n            "POSITION": %d,\n            "NORMAL": %d\n          },'
)
_MESH = _PRIMITIVE + '\n          "indices": %d,\n          "material": %d\n        }\n      ]\n    }'
_POINTS = _PRIMITIVE + '\n          "material": %d,\n          "mode": 0\n        }\n      ]\n    }'

_VIEW = (
    '{\n      "buffer": 0,\n      "byteOffset": %d,\n      "byteLength": %d,'
    '\n      "target": %d\n    }'
)

_MATERIAL = (
    '{\n      "name": %s,\n      "pbrMetallicRoughness": {\n        "baseColorFactor": ['
    '\n          %s,\n          %s,\n          %s,\n          %s\n        ],'
    '\n        "metallicFactor": 0.0,\n        "roughnessFactor": 1.0\n      }'
)

_DOCUMENT = (
    '{\n  "asset": {\n    "generator": "codeforest",\n    "version": "2.0"\n  },'
    '\n  "scene": 0,\n  "scenes": [\n    {\n      "nodes": [\n        0\n      ]\n    }\n  ],'
    '\n  "nodes": [\n    %s\n  ]%s\n}'
)

_BUFFERS = (
    ',\n  "meshes": [\n    %s\n  ],\n  "materials": [\n    %s\n  ],'
    '\n  "accessors": [\n    %s\n  ],\n  "bufferViews": [\n    %s\n  ],'
    '\n  "buffers": [\n    {\n      "byteLength": %d,'
    '\n      "uri": "data:application/octet-stream;base64,%s"\n    }\n  ]'
)


def json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if value != value:
        return "NaN"
    if value == inf:
        return "Infinity"
    if value == -inf:
        return "-Infinity"
    return float.__repr__(value)


def build_gltf(scene: Scene) -> str:
    """The glTF document's text, as ``json.dumps(doc, indent=2)`` writes
    it, without a trailing newline."""
    nodes = []
    for node in scene.nodes:
        row = '{\n      "name": ' + _quote(node.name)
        if node.mesh is not None:
            row += ',\n      "mesh": %d' % node.mesh
        if node.translation != (0.0, 0.0, 0.0):
            x, y, z = t = tuple(map(float, node.translation))
            if -inf < x < inf and -inf < y < inf and -inf < z < inf:
                row += _FINITE_TRANSLATION % t
            else:
                row += _TRANSLATION % tuple(map(json_float, t))
        if node.children:
            row += ',\n      "children": [\n        %s\n      ]' % _ITEM.join(
                map(int.__repr__, node.children))
        nodes.append(row + "\n    }")
    if not scene.meshes:
        return _DOCUMENT % (_ROW.join(nodes), "")

    chunks: list[bytes] = []
    views: list[str] = []
    accessors: list[str] = []
    meshes: list[str] = []
    # (template, bytes) -> accessor number; the template names the role.
    numbers: dict[tuple[str, bytes], int] = {}
    offset = 0
    for mesh in scene.meshes:
        vertex_count = mesh.vertex_count
        index_count = len(mesh.indices)
        if vertex_count > _MAX_COUNT or index_count > _MAX_COUNT:
            raise SceneTooLarge(max(vertex_count, index_count))
        refs = []
        arrays = [(_POSITION, mesh.positions.tobytes(), _FLOAT, vertex_count, _ARRAY_BUFFER),
                  (_NORMAL, mesh.normals.tobytes(), _FLOAT, vertex_count, _ARRAY_BUFFER)]
        if index_count:
            arrays.append((_INDICES, mesh.indices.tobytes(), _UNSIGNED_INT, index_count,
                           _ELEMENT_ARRAY_BUFFER))
        for template, data, component, count, target in arrays:
            k = numbers.setdefault((template, data), len(accessors))
            refs.append(k)
            if k < len(accessors):
                continue
            fields = (k, component, count)
            if template is _POSITION:
                lo, hi = bounds(mesh)
                fields += (*map(json_float, lo), *map(json_float, hi))
            accessors.append(template % fields)
            views.append(_VIEW % (offset, len(data), target))
            chunks.append(data)
            offset += len(data)
        meshes.append((_MESH if index_count else _POINTS) % (*refs, mesh.material))

    materials = []
    for material in scene.materials:
        color = material.base_color
        row = _MATERIAL % (_quote(material.name), *(json_float(float(c)) for c in color))
        if color[3] < 1.0:
            row += ',\n      "alphaMode": "BLEND"'
        materials.append(row + "\n    }")

    buffers = _BUFFERS % (
        _ROW.join(meshes), _ROW.join(materials), _ROW.join(accessors), _ROW.join(views),
        offset, base64.b64encode(b"".join(chunks)).decode("ascii"),
    )
    return _DOCUMENT % (_ROW.join(nodes), buffers)


def export_gltf(scene: Scene, path: str | Path) -> tuple[Path]:
    """Write ``<path>``; return the one path written."""
    path = Path(path)
    path.write_text(build_gltf(scene) + "\n", encoding="utf-8")
    return (path,)
