"""Wavefront OBJ export.

One ``o`` group per mesh-bearing node, vertices baked into world space
(the OBJ format has no node hierarchy), so a mesh that several nodes
share is written once per node. Vertex and normal indices are global
and 1-based; faces reference them as ``v//n``. A sibling .mtl file
carries the palette as ``newmtl``/``Kd``/``d`` entries.

Each block of ``v``, ``vn`` or ``f`` lines is one ``%``-format over a
flattened array; world positions are float64 sums, the same bits as
adding Python floats one by one.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..geometry import Scene, world_transforms


def obj_text(scene: Scene, mtl_name: str | None = None) -> str:
    transforms = world_transforms(scene)
    chunks = []
    if mtl_name is not None:
        chunks.append(f"mtllib {mtl_name}\n")
    normal_blocks: dict[int, str] = {}  # by mesh index
    offset = 1
    for idx, node in enumerate(scene.nodes):
        if node.mesh is None:
            continue
        mesh = scene.meshes[node.mesh]
        n = mesh.vertex_count
        chunks.append(f"o {node.name}\nusemtl {scene.materials[mesh.material].name}\n")
        world = mesh.positions.astype(np.float64) + np.array(transforms[idx])
        chunks.append("v %.6f %.6f %.6f\n" * n % tuple(world.ravel().tolist()))
        normals = normal_blocks.get(node.mesh)
        if normals is None:
            normals = normal_blocks[node.mesh] = (
                "vn %.6f %.6f %.6f\n" * n % tuple(mesh.normals.ravel().tolist())
            )
        chunks.append(normals)
        corners = np.repeat(mesh.indices.astype(np.int64) + offset, 2)
        chunks.append("f %d//%d %d//%d %d//%d\n" * mesh.triangle_count
                      % tuple(corners.tolist()))
        offset += n
    return "".join(chunks) or "\n"


def mtl_text(scene: Scene) -> str:
    lines = []
    for material in scene.materials:
        r, g, b, a = material.base_color
        lines.append(f"newmtl {material.name}")
        lines.append("Kd %.6f %.6f %.6f" % (r, g, b))
        lines.append("d %.6f" % a)
    return "\n".join(lines) + "\n"


def export_obj(scene: Scene, path: str | Path) -> tuple[Path, Path]:
    """Write ``<path>`` and a sibling ``.mtl`` with the same stem."""
    obj_path = Path(path)
    mtl_path = obj_path.with_suffix(".mtl")
    obj_path.write_text(obj_text(scene, mtl_name=mtl_path.name), encoding="utf-8")
    mtl_path.write_text(mtl_text(scene), encoding="utf-8")
    return obj_path, mtl_path
