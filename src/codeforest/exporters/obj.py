"""Wavefront OBJ export.

One ``o`` group per mesh-bearing node, vertices baked into world space
(the OBJ format has no node hierarchy), so a mesh that several nodes
share is written once per node. Vertex and normal indices are global
and 1-based; faces reference them as ``v//n``. A sibling .mtl file
carries the palette as ``newmtl``/``Kd``/``d`` entries.

Each block of ``v`` or ``vn`` lines is one ``%``-format over a flat
tuple of the mesh's items; a world position is the float32 coordinate
plus the node's world translation, added as Python floats.

Faces are where the text repeats itself: a corner names its vertex
twice, and a vertex is a corner of about four triangles. So each
node's ``k//k`` corner strings are formatted once per vertex, by one
``%`` over the node's vertex numbers, and a mesh's ``f`` block is a
``"f %s %s %s\\n" * t`` template filled with those strings through an
``itemgetter`` over the mesh's indices. The scene stores every mesh
once per distinct content, islands and channels included, so any mesh
may be used by several nodes. The ``vn`` block, the template and the
getter are kept only for a mesh that more than one node uses; a mesh
used once, as most trunks and many channels are, would hold memory for
nothing.

The file is written in ``_WRITE_SLICE``-character slices, so at most
one slice is ever encoded at a time: encoding the whole text at once
would hold a second, bytes copy of the largest file codeforest writes.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, cycle
from operator import add, itemgetter
from pathlib import Path

from ..errors import OutputIsMaterialFile
from ..geometry import Scene, flat, world_transforms

_WRITE_SLICE = 1 << 20


def _no_corners(corners: list[str]) -> tuple:
    """The getter of a mesh without triangles: ``itemgetter()`` raises."""
    return ()


def obj_text(scene: Scene, mtl_name: str | None = None) -> str:
    transforms = world_transforms(scene)
    chunks = []
    if mtl_name is not None:
        chunks.append(f"mtllib {mtl_name}\n")
    uses = Counter(node.mesh for node in scene.nodes)
    shared: dict[int, tuple] = {}  # by mesh index: vn block, f template, getter
    offset = 1
    for idx, node in enumerate(scene.nodes):
        if node.mesh is None:
            continue
        mesh = scene.meshes[node.mesh]
        n = mesh.vertex_count
        chunks.append(f"o {node.name}\nusemtl {scene.materials[mesh.material].name}\n")
        world = map(add, flat(mesh.positions).tolist(), cycle(transforms[idx]))
        chunks.append("v %.6f %.6f %.6f\n" * n % tuple(world))
        pieces = shared.get(node.mesh)
        if pieces is None:
            indices = mesh.indices.tolist()
            pieces = (
                "vn %.6f %.6f %.6f\n" * n % tuple(flat(mesh.normals).tolist()),
                "f %s %s %s\n" * mesh.triangle_count,
                itemgetter(*indices) if indices else _no_corners,
            )
            if uses[node.mesh] > 1:
                shared[node.mesh] = pieces
        normals, faces, corners_of = pieces
        chunks.append(normals)
        numbers = range(offset, offset + n)
        corners = ("%d//%d " * n % tuple(chain.from_iterable(zip(numbers, numbers)))).split()
        chunks.append(faces % corners_of(corners))
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
    """Write ``<path>`` and a sibling ``.mtl`` with the same stem.

    Raises ``OutputIsMaterialFile``, writing nothing, when ``path`` is
    that ``.mtl`` file itself.
    """
    obj_path = Path(path)
    mtl_path = obj_path.with_suffix(".mtl")
    if mtl_path == obj_path:
        raise OutputIsMaterialFile(str(obj_path))
    text = obj_text(scene, mtl_name=mtl_path.name)
    with open(obj_path, "w", encoding="utf-8") as out:
        for start in range(0, len(text), _WRITE_SLICE):
            out.write(text[start:start + _WRITE_SLICE])
    mtl_path.write_text(mtl_text(scene), encoding="utf-8")
    return obj_path, mtl_path
