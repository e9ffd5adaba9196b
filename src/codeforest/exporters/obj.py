"""Wavefront OBJ export.

One ``o`` group per mesh-bearing node, vertices baked into world space
(the OBJ format has no node hierarchy), so a mesh that several nodes
share has its ``v`` lines written once per node. A sibling .mtl file
carries the palette as ``newmtl``/``Kd``/``d`` entries. Node names and
the ``mtllib`` name are written with each line break as ``_``.

Each block of ``v`` lines is one ``%``-format over a flat tuple of the
mesh's coordinates; a world position is the float32 coordinate plus
the node's world translation, added as Python floats.

Everything else a node writes depends on its mesh alone:

* Normals do not move with a translation, and a scene holds few
  distinct ones. One scene-wide table numbers each distinct ``vn``
  line, keyed on its text (``-0.0`` and ``0.0`` print differently, and
  a NaN never equals itself); a mesh's new lines are written the first
  time it is used, just before its faces, so each reference points
  back.
* Faces name their vertices relative to the end of the vertex list,
  by the OBJ spec's negative references: vertex ``k`` of an
  ``n``-vertex mesh is ``k - n`` (``-n`` its first, ``-1`` its last),
  whichever node's ``v`` lines precede the faces. A corner such as
  ``-3//7`` pairs that with the ``vn`` number from the table.

So a mesh's ``f`` block is one fixed string: a ``"f %s %s %s\\n" * t``
template filled once from the mesh's corner strings through its
indices. The scene stores every mesh once per distinct content,
islands and channels included, so any mesh may be used by several
nodes, and each block is kept for the next node that uses its mesh.
Keeping it costs no text memory: the same string is held in the
output's pieces until they are joined.

The file is written in ``_WRITE_SLICE``-character slices, so at most
one slice is ever encoded at a time: encoding the whole text at once
would hold a second, bytes copy of the largest file codeforest writes.
"""

from __future__ import annotations

from itertools import cycle
from operator import add
from pathlib import Path

from ..errors import OutputIsMaterialFile
from ..geometry import Scene, flat, world_transforms

_WRITE_SLICE = 1 << 20

# Each character ``str.splitlines`` breaks a line at, as ``_``. A name
# written with one raw would start a line of its own, which may read as
# a ``v``, ``vn`` or ``f`` line and shift every later number.
_LINE_BREAKS = str.maketrans(dict.fromkeys("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "_"))


def _one_line(name: str) -> str:
    # No line break is printable, and the test is far cheaper than
    # ``translate`` on the printable names every Java corpus gives.
    return name if name.isprintable() else name.translate(_LINE_BREAKS)


def obj_text(scene: Scene, mtl_name: str | None = None) -> str:
    transforms = world_transforms(scene)
    chunks = []
    if mtl_name is not None:
        chunks.append(f"mtllib {_one_line(mtl_name)}\n")
    normal_numbers: dict[str, int] = {}  # vn line -> its 1-based number
    shared_faces: dict[int, str] = {}  # by mesh index
    for idx, node in enumerate(scene.nodes):
        if node.mesh is None:
            continue
        mesh = scene.meshes[node.mesh]
        n = mesh.vertex_count
        chunks.append(f"o {_one_line(node.name)}\nusemtl {scene.materials[mesh.material].name}\n")
        world = map(add, flat(mesh.positions).tolist(), cycle(transforms[idx]))
        chunks.append("v %.6f %.6f %.6f\n" * n % tuple(world))
        faces = shared_faces.get(node.mesh)
        if faces is None:
            numbers = []
            normals = "vn %.6f %.6f %.6f\n" * n % tuple(flat(mesh.normals).tolist())
            for line in normals.splitlines(True):
                number = normal_numbers.get(line)
                if number is None:
                    number = normal_numbers[line] = len(normal_numbers) + 1
                    chunks.append(line)
                numbers.append(number)
            corners = list(map("%d//%d".__mod__, zip(range(-n, 0), numbers)))
            faces = "f %s %s %s\n" * mesh.triangle_count % tuple(
                map(corners.__getitem__, mesh.indices.tolist()))
            shared_faces[node.mesh] = faces
        chunks.append(faces)
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
