"""Maya MEL export.

Writes a script that rebuilds the scene from Maya primitives: every
mesh-bearing node becomes exactly one creation command sized from the
node's world-space bounds, then a ``rename`` and an absolute ``move``.

* islands      -> ``polyCone`` (radius and height from bounds)
* trunks       -> ``polyCylinder``
* canopies and leaves -> ``polySphere``
* channels     -> a single ``polyCreateFacet`` tracing the ribbon outline

The stand-ins approximate the real geometry (a terraced island becomes
a cone); exact meshes belong to the glTF and OBJ writers. Names keep
only letters and digits, everything else becomes ``_``; a name already
written takes the smallest free ``_2``, ``_3``, ... suffix, so no two
nodes share a name even where a suffixed name equals another's base.
"""

from __future__ import annotations

import re
from pathlib import Path

from ..geometry import Scene, bounds, world_transforms

_MIN_HEIGHT = 0.1
_UNSAFE = re.compile(r"[^A-Za-z0-9]")


def _sanitize(name: str, used: dict[str, int]) -> str:
    """A fresh name for ``name``; ``used`` maps every name returned so
    far to the last suffix handed out with it as the base."""
    base = candidate = _UNSAFE.sub("_", name)
    # Names are only added, so a base's smallest free suffix never
    # falls: the search resumes where the last one stopped.
    k = used.get(base, 1)
    while candidate in used:
        k += 1
        candidate = f"{base}_{k}"
    used[candidate] = 1
    used[base] = k
    return candidate


def mel_text(scene: Scene) -> str:
    transforms = world_transforms(scene)
    used: dict[str, int] = {}
    boxes: dict[int, tuple[list[float], list[float]]] = {}  # by mesh index
    lines: list[str] = []
    for idx, node in enumerate(scene.nodes):
        if node.mesh is None:
            continue
        mesh = scene.meshes[node.mesh]
        tx, ty, tz = transforms[idx]
        name = _sanitize(node.name, used)

        if node.name.startswith("channel:"):
            # Right edge forward, then left edge back.
            world = [(x + tx, y + ty, z + tz) for x, y, z in mesh.positions.tolist()]
            flags = " ".join(
                "-p %.6f %.6f %.6f" % p for p in world[0::2] + world[-1::-2]
            )
            lines.append(f"$n = `polyCreateFacet {flags}`;")
            lines.append(f'rename $n[0] "{name}";')
            continue

        # Rounding is monotone, so the bounds of the moved vertices are
        # the moved bounds.
        box = boxes.get(node.mesh)
        if box is None:
            box = boxes[node.mesh] = bounds(mesh)
        (x0, y0, z0), (x1, y1, z1) = box
        lo = (x0 + tx, y0 + ty, z0 + tz)
        hi = (x1 + tx, y1 + ty, z1 + tz)
        radius = max(hi[0] - lo[0], hi[2] - lo[2]) / 2.0
        height = max(hi[1] - lo[1], _MIN_HEIGHT)
        if node.name.startswith("island:"):
            lines.append("$n = `polyCone -r %.6f -h %.6f`;" % (radius, height))
        elif node.name.startswith("trunk:"):
            lines.append("$n = `polyCylinder -r %.6f -h %.6f`;" % (radius, height))
        else:
            lines.append("$n = `polySphere -r %.6f`;" % ((hi[1] - lo[1]) / 2.0))
        lines.append(f'rename $n[0] "{name}";')
        lines.append(
            'move -a %.6f %.6f %.6f "%s";'
            % ((lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0, (lo[2] + hi[2]) / 2.0,
               name)
        )
    if lines:
        lines = ["// forest scene", "string $n[];"] + lines
    lines.append("select -cl;")
    return "\n".join(lines) + "\n"


def export_mel(scene: Scene, path: str | Path) -> tuple[Path]:
    """Write ``<path>``; return the one path written."""
    path = Path(path)
    path.write_text(mel_text(scene), encoding="utf-8")
    return (path,)
