"""glTF 2.0 export: one self-contained ``.gltf`` file of compact JSON.

All vertex and index data live in one base64 buffer. Each scene mesh is
one glTF mesh whose primitive refers to POSITION, NORMAL and indices
accessors; a mesh without triangles is drawn as points (mode 0), since
glTF forbids an empty view or an accessor of count 0. Each distinct
(role, bytes) array gets accessor ``k`` over view ``k``, in first-use
order, and later equal arrays share it. The role keeps a unit sphere's
normals, equal to its positions, off the POSITION accessor, the only one
with min/max. A default translation and empty lists are left out, as the
schema's minItems rules require. The JSON has no whitespace, which glTF
leaves free: ``indent`` would force ``json.dumps`` onto its slower
pure-Python encoder.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

from ..errors import SceneTooLarge
from ..geometry import Scene, bounds

_ARRAY_BUFFER = 34962
_ELEMENT_ARRAY_BUFFER = 34963
_FLOAT = 5126
_UNSIGNED_INT = 5125
_MAX_COUNT = 0xFFFFFFFF


def build_gltf(scene: Scene) -> str:
    """The glTF document's compact JSON text, without a trailing newline."""
    nodes = []
    for node in scene.nodes:
        row: dict = {"name": node.name}
        if node.mesh is not None:
            row["mesh"] = node.mesh
        if node.translation != (0.0, 0.0, 0.0):
            row["translation"] = [float(v) for v in node.translation]
        if node.children:
            row["children"] = node.children
        nodes.append(row)
    doc: dict = {
        "asset": {"generator": "codeforest", "version": "2.0"},
        "scene": 0,
        "scenes": [{"nodes": [0]}],
        "nodes": nodes,
    }
    if scene.meshes:
        chunks: list[bytes] = []
        views: list[dict] = []
        accessors: list[dict] = []
        meshes: list[dict] = []
        numbers: dict[tuple[str, bytes], int] = {}  # (role, bytes) -> accessor
        offset = 0
        for mesh in scene.meshes:
            vertex_count = mesh.vertex_count
            index_count = len(mesh.indices)
            if vertex_count > _MAX_COUNT or index_count > _MAX_COUNT:
                raise SceneTooLarge(max(vertex_count, index_count))
            arrays = [("POSITION", mesh.positions.tobytes(), _FLOAT, vertex_count, _ARRAY_BUFFER),
                      ("NORMAL", mesh.normals.tobytes(), _FLOAT, vertex_count, _ARRAY_BUFFER)]
            if index_count:
                arrays.append(("indices", mesh.indices.tobytes(), _UNSIGNED_INT, index_count,
                               _ELEMENT_ARRAY_BUFFER))
            refs = []
            for role, data, component, count, target in arrays:
                k = numbers.setdefault((role, data), len(accessors))
                refs.append(k)
                if k < len(accessors):
                    continue
                accessor = {"bufferView": k, "componentType": component, "count": count,
                            "type": "SCALAR" if role == "indices" else "VEC3"}
                if role == "POSITION":
                    accessor["min"], accessor["max"] = bounds(mesh)
                accessors.append(accessor)
                views.append({"buffer": 0, "byteOffset": offset, "byteLength": len(data),
                              "target": target})
                chunks.append(data)
                offset += len(data)
            primitive: dict = {"attributes": {"POSITION": refs[0], "NORMAL": refs[1]}}
            if index_count:
                primitive.update(indices=refs[2], material=mesh.material)
            else:
                primitive.update(material=mesh.material, mode=0)
            meshes.append({"primitives": [primitive]})
        materials = []
        for material in scene.materials:
            color = [float(c) for c in material.base_color]
            row = {"name": material.name, "pbrMetallicRoughness": {
                "baseColorFactor": color, "metallicFactor": 0.0, "roughnessFactor": 1.0}}
            if color[3] < 1.0:
                row["alphaMode"] = "BLEND"
            materials.append(row)
        doc.update(meshes=meshes, materials=materials, accessors=accessors, bufferViews=views,
                   buffers=[{"byteLength": offset, "uri": "data:application/octet-stream;base64,"
                             + base64.b64encode(b"".join(chunks)).decode("ascii")}])
    return json.dumps(doc, separators=(",", ":"), check_circular=False)


def export_gltf(scene: Scene, path: str | Path) -> tuple[Path]:
    """Write ``<path>``; return the one path written."""
    path = Path(path)
    path.write_text(build_gltf(scene) + "\n", encoding="utf-8")
    return (path,)
