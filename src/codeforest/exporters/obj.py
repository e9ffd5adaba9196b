"""Wavefront OBJ export.

One ``o`` group per mesh-bearing node, vertices baked into world space
(the OBJ format has no node hierarchy), so a mesh that several nodes
share has its ``v`` lines written once per node. A sibling .mtl file
carries the palette as ``newmtl``/``Kd``/``d`` entries. Node names and
the ``mtllib`` name are written with each line break as ``_``.

A world position is the float32 coordinate plus the node's world
translation, added as Python floats and printed with ``%.6f``. A
mesh's first use writes its ``v`` lines with one ``%``-format over all
of its coordinates. Each axis of a mesh holds few distinct values
(rings share their y, mirrored segments their x and z), so the second
use builds the mesh a vertex plan, kept for every later use:

* per axis, the distinct coordinates, keyed by their float32 bits,
  since ``0.0`` and ``-0.0`` are equal as floats but print apart;
* one template that formats those distinct sums, each ending in a
  ``\\0``: ``"v %.6f \\0"`` per x, ``"%.6f \\0"`` per y and
  ``"%.6f\\n\\0"`` per z;
* an ``itemgetter`` that picks each vertex's x, y and z pieces of the
  split text in vertex order.

So a node whose mesh is planned formats each distinct number once, and
a mesh used once (an island, a channel) costs no plan. Planning at the
first use as well would leave one writer of ``v`` lines, but it is
slower: a channel mesh has about 8 vertices, and building its plan
costs more than the plan saves in formatting. On a 2-core x86 machine,
the seed-1 ``deep_grove`` benchmark scene's 825 single-use meshes (824
channels and its island) take 6.4 ms with one ``%`` over every
coordinate, and 10.3 ms just to plan.

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

from itertools import chain, count, cycle, repeat
from operator import add, itemgetter
from pathlib import Path

from ..errors import OutputIsMaterialFile
from ..geometry import Mesh, Scene, flat, world_transforms

_WRITE_SLICE = 1 << 20

# Each character ``str.splitlines`` breaks a line at, as ``_``. A name
# written with one raw would start a line of its own, which may read as
# a ``v``, ``vn`` or ``f`` line and shift every later number.
_LINE_BREAKS = str.maketrans(dict.fromkeys("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "_"))


def _one_line(name: str) -> str:
    # No line break is printable, and the test is far cheaper than
    # ``translate`` on the printable names every Java corpus gives.
    return name if name.isprintable() else name.translate(_LINE_BREAKS)


def _vertex_plan(mesh: Mesh) -> tuple:
    """``(template, xs, ys, zs, pick)`` for a mesh with vertices."""
    coords = flat(mesh.positions)
    values = coords.tolist()
    bits = coords.cast("B").cast("I").tolist()
    axes, slots, start = [], [], 0
    for k in range(3):
        distinct = dict(zip(bits[k::3], values[k::3]))  # in first-use order
        slot = dict(zip(distinct, count(start)))
        axes.append(list(distinct.values()))
        slots.append(map(slot.__getitem__, bits[k::3]))
        start += len(distinct)
    xs, ys, zs = axes
    template = "v %.6f \0" * len(xs) + "%.6f \0" * len(ys) + "%.6f\n\0" * len(zs)
    return template, xs, ys, zs, itemgetter(*chain.from_iterable(zip(*slots)))


def obj_text(scene: Scene, mtl_name: str | None = None) -> str:
    transforms = world_transforms(scene)
    chunks = []
    if mtl_name is not None:
        chunks.append(f"mtllib {_one_line(mtl_name)}\n")
    normal_numbers: dict[str, int] = {}  # vn line -> its 1-based number
    shared_faces: dict[int, str] = {}  # by mesh index
    plans: dict[int, tuple] = {}  # by mesh index, from its second use
    for idx, node in enumerate(scene.nodes):
        if node.mesh is None:
            continue
        mesh = scene.meshes[node.mesh]
        n = mesh.vertex_count
        chunks.append(f"o {_one_line(node.name)}\nusemtl {scene.materials[mesh.material].name}\n")
        faces = shared_faces.get(node.mesh)
        if faces is None:
            world = map(add, flat(mesh.positions).tolist(), cycle(transforms[idx]))
            chunks.append("v %.6f %.6f %.6f\n" * n % tuple(world))
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
        elif n:  # a later use; a mesh without vertices has no v lines
            plan = plans.get(node.mesh)
            if plan is None:
                plan = plans[node.mesh] = _vertex_plan(mesh)
            template, xs, ys, zs, pick = plan
            tx, ty, tz = transforms[idx]
            sums = (*map(add, xs, repeat(tx)), *map(add, ys, repeat(ty)),
                    *map(add, zs, repeat(tz)))
            chunks.append("".join(pick((template % sums).split("\0"))))
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
