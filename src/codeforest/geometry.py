"""Mesh construction and scene assembly.

Sizes encode metrics: trunk height grows with the log of class length,
trunk girth with normalized outgoing calls, canopy radius with the
square root of the method count, and each method contributes one leaf
sphere colored by its kind. Islands are terraced: the layout's flat
bands at their tier heights, joined by walls; channels are flat water
ribbons following the layout polylines. The sizing rules and the
tessellation read their settings (``h0``, ``h1``, ``r0``, ``c``,
``canopy_coefficient``, ``leaf_radius``, ``segments``) and the palette
from ``Config``.

A mesh holds read-only ``memoryview``s: float32 (n, 3) positions and
normals, and a flat run of uint32 triangle indices. Meshes are shared
by index: every mesh, islands and channels included, is stored once per
distinct content. Within one ``assemble_scene`` call, one table maps
each mesh's content, and the build arguments of each tree part
(builder, dimensions, segment count, material), island (bands, tier
heights, segment count) and channel (polyline, and the centre of the
island it hangs under), to its index in ``scene.meshes``. So every
leaf of a kind, every canopy of a given method count and every island
of equal terraces is built once and held by several nodes. A channel's
polyline is its own, so each channel is built once, and channels of
equal shape within their islands share one mesh through its content.

Nodes form a single tree rooted at ``forest`` with stable, unique
names:

* ``island:<pkg>`` (carries the island mesh)
* ``tree:<pkg>.<Class>`` (grouping node at the trunk base)
* ``trunk:<pkg>.<Class>``, ``canopy:<pkg>.<Class>``
* ``leaf:<pkg>.<Class>.<method>`` with ``#k`` suffixes for overloads
* ``channel:<ParentClass>-><ChildClass>``

Same-island channels hang under their island node; channels between
islands hang under the root. Node order is deterministic: islands in
package order, trees in class order, then channels. A scene with a
node translation or mesh position that overflows raises
``GeometryOverflow`` instead of reaching an exporter.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import chain
from typing import TYPE_CHECKING

from .errors import DegenerateSegment, GeometryOverflow, NonPositiveValue
from .layout import GOLDEN_ANGLE, ChannelPath, ForestLayout
from .model import (
    KIND_ACCESSOR,
    KIND_CONSTRUCTOR,
    KIND_MUTATOR,
    KIND_OTHER,
    ClassMetrics,
    CodeModel,
    classify_method,
    method_labels,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    from .config import Config

CANOPY_MIN_RADIUS = 0.4
CANOPY_LIFT = 0.7  # canopy centre sits this fraction of its radius above the trunk
CHANNEL_WIDTH = 0.35

MAT_ISLAND = 0
MAT_TRUNK = 1
MAT_CANOPY = 2
MAT_WATER = 3
MAT_LEAF_ACCESSOR = 4
MAT_LEAF_MUTATOR = 5
MAT_LEAF_CONSTRUCTOR = 6
MAT_LEAF_OTHER = 7

_LEAF_MATERIAL = {
    KIND_ACCESSOR: MAT_LEAF_ACCESSOR,
    KIND_MUTATOR: MAT_LEAF_MUTATOR,
    KIND_CONSTRUCTOR: MAT_LEAF_CONSTRUCTOR,
    KIND_OTHER: MAT_LEAF_OTHER,
}


class Material:
    __slots__ = ("name", "base_color")

    def __init__(self, name: str, base_color: tuple[float, float, float, float]):
        self.name = name
        self.base_color = base_color


def default_palette() -> list[Material]:
    return [
        Material("island", (0.85, 0.78, 0.55, 1.0)),
        Material("trunk", (0.45, 0.30, 0.15, 1.0)),
        Material("canopy", (0.20, 0.55, 0.20, 0.35)),
        Material("water", (0.20, 0.45, 0.85, 1.0)),
        Material("leaf_accessor", (0.30, 0.75, 0.30, 1.0)),
        Material("leaf_mutator", (0.85, 0.35, 0.25, 1.0)),
        Material("leaf_constructor", (0.90, 0.80, 0.25, 1.0)),
        Material("leaf_other", (0.55, 0.55, 0.85, 1.0)),
    ]


class Mesh:
    __slots__ = ("positions", "normals", "indices", "material")

    def __init__(self, positions: memoryview, normals: memoryview, indices: memoryview,
                 material: int):
        self.positions = positions  # float32, shape (n, 3)
        self.normals = normals  # float32, shape (n, 3)
        self.indices = indices  # uint32, shape (3 * t,)
        self.material = material

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, key) == getattr(other, key) for key in self.__slots__)

    @property
    def vertex_count(self) -> int:
        return len(self.positions)

    @property
    def triangle_count(self) -> int:
        return len(self.indices) // 3


def flat(view: memoryview) -> memoryview:
    """``view`` as one run of items; x, y, z per vertex for a (n, 3) view."""
    return view.cast("B").cast(view.format)


def bounds(mesh: Mesh) -> tuple[list[float], list[float]]:
    """Per-axis minimum and maximum of ``mesh.positions``, as floats."""
    coords = flat(mesh.positions).tolist()
    axes = [coords[k::3] for k in range(3)]
    return [min(a) for a in axes], [max(a) for a in axes]


class SceneNode:
    __slots__ = ("name", "translation", "mesh", "children")

    def __init__(self, name: str, translation: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 mesh: int | None = None, children: list[int] | None = None):
        self.name = name
        self.translation = translation
        self.mesh = mesh
        self.children = [] if children is None else children


class Scene:
    """Nodes, the meshes they hold by index, and the palette; node 0 is
    the root."""

    __slots__ = ("nodes", "meshes", "materials")

    def __init__(self, nodes: list[SceneNode], meshes: list[Mesh], materials: list[Material]):
        self.nodes = nodes
        self.meshes = meshes
        self.materials = materials


class TreeDims:
    __slots__ = ("trunk_height", "trunk_radius", "canopy_radius", "leaf_radius")

    def __init__(self, trunk_height: float, trunk_radius: float, canopy_radius: float,
                 leaf_radius: float):
        self.trunk_height = trunk_height
        self.trunk_radius = trunk_radius
        self.canopy_radius = canopy_radius
        self.leaf_radius = leaf_radius


def tree_dimensions(
    metrics: ClassMetrics, max_fan_out: int, params: Config
) -> TreeDims:
    """Metric-driven dimensions for one tree.

    trunk_height   = h0 + h1 * ln(1 + loc)
    trunk_radius   = r0 * (1 + c * fan_out / max(fan_out over corpus))
    canopy_radius  = canopy_coefficient * sqrt(method_count), at least 0.4
    """
    fan_norm = metrics.fan_out / max_fan_out if max_fan_out > 0 else 0.0
    return TreeDims(
        trunk_height=params.h0 + params.h1 * math.log1p(metrics.loc),
        trunk_radius=params.r0 * (1.0 + params.c * fan_norm),
        canopy_radius=max(
            params.canopy_coefficient * math.sqrt(metrics.method_count),
            CANOPY_MIN_RADIUS,
        ),
        leaf_radius=params.leaf_radius,
    )


def _as_mesh(verts, norms, tris, material: int) -> Mesh:
    unit: list[float] = []
    for x, y, z in norms:
        length = math.sqrt(x * x + y * y + z * z) or 1.0  # a zero normal stays zero
        unit += (x / length, y / length, z / length)
    return Mesh(
        _vec3(chain.from_iterable(verts)),
        _vec3(unit),
        memoryview(array("I", chain.from_iterable(tris)).tobytes()).cast("I"),
        material,
    )


def _vec3(values) -> memoryview:
    """Read-only float32 (n, 3) view of flat x, y, z values; past the
    float32 range a value becomes inf, which ``_check_finite`` reports."""
    floats = array("f", values)
    return memoryview(floats.tobytes()).cast("f", (len(floats) // 3, 3))


def _ring(radius: float, y: float, segments: int):
    pts = []
    for k in range(segments):
        a = 2.0 * math.pi * k / segments
        pts.append((radius * math.cos(a), y, radius * math.sin(a)))
    return pts


def check_segments(segments: int) -> None:
    """Raise ``NonPositiveValue`` unless 8 <= ``segments`` <= 256: a
    render's size grows with the square of ``segments`` (at 256 the
    two-class fixture's glTF is already about 10 MB)."""
    if segments < 8:
        raise NonPositiveValue("segments", segments, reason="must be at least 8")
    if segments > 256:
        raise NonPositiveValue("segments", segments, reason="must be at most 256")


def build_island_mesh(
    bands: tuple[tuple[float, float], ...], tier_heights: tuple[float, ...], segments: int
) -> Mesh:
    """Terraced island: a summit disc, then per lower tier a wall down
    from the band above and its flat band.

    ``bands`` holds each tier's flat (inner, outer) radii, summit first;
    a wall runs from one band's outer edge to the next band's inner
    edge. Vertex count is ``segments * (2 * tiers - 1) + 1``: the
    summit's outer ring, an inner and an outer ring per lower tier, and
    the summit's centre.
    """
    check_segments(segments)
    # Ring r of the vertex list starts at r * segments: the summit's
    # outer ring, then each lower tier's inner and outer ring. An edge
    # ring's normal is that of the wall it bounds, so walls shade smooth.
    up = [(0.0, 1.0, 0.0)] * segments
    verts = _ring(bands[0][1], tier_heights[0], segments)
    norms = []
    for u in range(1, len(bands)):
        top, (inner, outer), y = bands[u - 1][1], bands[u], tier_heights[u]
        drop, run = tier_heights[u - 1] - y, inner - top
        slope = math.hypot(drop, run)
        wall = _ring(drop / slope, run / slope, segments)
        verts += _ring(inner, y, segments) + _ring(outer, y, segments)
        norms += wall + wall
    norms += up
    center = len(verts)
    verts.append((0.0, tier_heights[0], 0.0))
    norms.append((0.0, 1.0, 0.0))

    tris = [(center, (k + 1) % segments, k) for k in range(segments)]
    # Up-facing quads from each ring to the next: walls and flat bands.
    for r in range(2 * len(bands) - 2):
        lo, hi = r * segments, (r + 1) * segments
        for k in range(segments):
            k1 = (k + 1) % segments
            tris += [(lo + k, hi + k1, hi + k), (lo + k, lo + k1, hi + k1)]
    return _as_mesh(verts, norms, tris, MAT_ISLAND)


def _cylinder(radius: float, height: float, segments: int, material: int) -> Mesh:
    bottom = _ring(radius, 0.0, segments)
    top = _ring(radius, height, segments)
    side = _ring(1.0, 0.0, segments)
    verts = bottom + top + top + [(0.0, height, 0.0)] + bottom + [(0.0, 0.0, 0.0)]
    norms = (side + side + [(0.0, 1.0, 0.0)] * (segments + 1)
             + [(0.0, -1.0, 0.0)] * (segments + 1))
    cap_top, cap_bot = 2 * segments, 3 * segments + 1
    c_top, c_bot = cap_top + segments, cap_bot + segments

    tris = []
    for k in range(segments):
        k1 = (k + 1) % segments
        tris.append((k, segments + k, segments + k1))
        tris.append((k, segments + k1, k1))
        tris.append((c_top, cap_top + k1, cap_top + k))
        tris.append((c_bot, cap_bot + k, cap_bot + k1))
    return _as_mesh(verts, norms, tris, material)


def _sphere(radius: float, segments: int, material: int) -> Mesh:
    lat = max(2, segments // 2)
    verts = [(0.0, radius, 0.0)]
    norms = [(0.0, 1.0, 0.0)]
    for i in range(1, lat):
        phi = math.pi * i / lat
        unit = _ring(math.sin(phi), math.cos(phi), segments)
        norms.extend(unit)
        verts.extend((radius * x, radius * y, radius * z) for x, y, z in unit)
    south = len(verts)
    verts.append((0.0, -radius, 0.0))
    norms.append((0.0, -1.0, 0.0))

    tris = []
    ring = lambda i, k: 1 + (i - 1) * segments + (k % segments)
    for k in range(segments):
        tris.append((0, ring(1, k + 1), ring(1, k)))
        tris.append((south, ring(lat - 1, k), ring(lat - 1, k + 1)))
    for i in range(1, lat - 1):
        for k in range(segments):
            a0, a1 = ring(i + 1, k), ring(i + 1, k + 1)  # lower ring
            t0, t1 = ring(i, k), ring(i, k + 1)  # upper ring
            tris.append((a0, t0, t1))
            tris.append((a0, t1, a1))
    return _as_mesh(verts, norms, tris, material)


def build_channel_mesh(
    pts: tuple[tuple[float, float, float], ...],
    origin: tuple[float, float] = (0.0, 0.0),
) -> Mesh:
    """Flat water ribbon ``CHANNEL_WIDTH`` wide along the polyline
    ``pts``, two triangles per segment.

    ``origin`` shifts the mesh into a parent node's local frame. A
    point within 1e-9 of the last point kept is dropped; raises
    DegenerateSegment, naming the missing point, when fewer than two
    points remain. The normals and indices depend on the number of
    points kept alone, so every ribbon of that count shares them.
    """
    kept = list(pts[:1])
    for p in pts[1:]:
        q = kept[-1]
        dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
        if dx * dx + dy * dy + dz * dz >= 1e-18:
            kept.append(p)
    if len(kept) < 2:
        raise DegenerateSegment(len(kept))
    pts = kept

    # Horizontal direction per segment; vertical drops borrow a neighbour.
    seg_dirs: list[tuple[float, float] | None] = []
    for i in range(len(pts) - 1):
        dx = pts[i + 1][0] - pts[i][0]
        dz = pts[i + 1][2] - pts[i][2]
        h = math.hypot(dx, dz)
        seg_dirs.append((dx / h, dz / h) if h > 1e-12 else None)
    fallback = next((d for d in seg_dirs if d is not None), (1.0, 0.0))
    seg_dirs = [d if d is not None else fallback for d in seg_dirs]

    half = CHANNEL_WIDTH / 2.0
    ox, oz = origin
    verts = []
    for i, (x, y, z) in enumerate(pts):
        if i == 0:
            dx, dz = seg_dirs[0]
        elif i == len(pts) - 1:
            dx, dz = seg_dirs[-1]
        else:
            ax, az = seg_dirs[i - 1]
            bx, bz = seg_dirs[i]
            mx, mz = ax + bx, az + bz
            m = math.hypot(mx, mz)
            dx, dz = (mx / m, mz / m) if m > 1e-12 else seg_dirs[i]
        px, pz = -dz, dx
        verts.append((x - ox - px * half, y, z - oz - pz * half))  # right
        verts.append((x - ox + px * half, y, z - oz + pz * half))  # left
    normals, indices = _ribbon_topology(len(pts))
    return Mesh(_vec3(chain.from_iterable(verts)), normals, indices, MAT_WATER)


@functools.lru_cache(maxsize=256)
def _ribbon_topology(points: int) -> tuple[memoryview, memoryview]:
    """Normals and indices of a ribbon along ``points`` points: both
    depend on the count alone, so ribbons of one count share the two
    read-only views. Each point has a right and a left vertex, every
    normal points straight up, and each segment is two triangles."""
    tris = []
    for r0 in range(0, 2 * points - 2, 2):
        l0, r1, l1 = r0 + 1, r0 + 2, r0 + 3
        tris += (r0, l0, l1, r0, l1, r1)
    return (_vec3((0.0, 1.0, 0.0) * (2 * points)),
            memoryview(array("I", tris).tobytes()).cast("I"))


def build_tree_parts(
    qualified: str,
    labels: list[str],
    kinds: list[str],
    dims: TreeDims,
    segments: int,
    mesh: Callable[..., int],
) -> list[SceneNode]:
    """Trunk, canopy and one leaf per method, in declaration order.

    Leaves sit on the canopy sphere along a golden-angle spiral; all
    translations are local to the tree node at the trunk base. Each
    node's mesh index is ``mesh(build, *args)``, which in
    ``assemble_scene`` builds ``build(*args)`` once per distinct
    arguments, so parts of equal dimensions share one mesh.
    """
    cy = dims.trunk_height + CANOPY_LIFT * dims.canopy_radius
    nodes = [
        SceneNode(f"trunk:{qualified}", (0.0, 0.0, 0.0),
                  mesh(_cylinder, dims.trunk_radius, dims.trunk_height, segments,
                       MAT_TRUNK)),
        SceneNode(f"canopy:{qualified}", (0.0, cy, 0.0),
                  mesh(_sphere, dims.canopy_radius, segments, MAT_CANOPY)),
    ]
    n = len(labels)
    for i, (label, kind) in enumerate(zip(labels, kinds)):
        y = 1.0 - 2.0 * (i + 0.5) / n
        r = math.sqrt(max(0.0, 1.0 - y * y))
        a = i * GOLDEN_ANGLE
        offset = (
            dims.canopy_radius * r * math.cos(a),
            cy + dims.canopy_radius * y,
            dims.canopy_radius * r * math.sin(a),
        )
        nodes.append(
            SceneNode(f"leaf:{qualified}.{label}", offset,
                      mesh(_sphere, dims.leaf_radius, segments, _LEAF_MATERIAL[kind]))
        )
    return nodes


def assemble_scene(
    model: CodeModel,
    class_metrics: list[ClassMetrics],
    forest: ForestLayout,
    params: Config,
) -> Scene:
    """Build the full node tree for a laid-out corpus.

    ``scene.meshes`` lists each distinct mesh once, in first-use order:
    no two hold equal positions, normals, indices and material, and
    every node whose mesh has that content, island and channel nodes
    included, holds the same mesh index. Raises ``GeometryOverflow`` if
    a node translation or a mesh position is not finite.
    """
    nodes: list[SceneNode] = [SceneNode("forest")]
    meshes: list[Mesh] = []
    scene = Scene(nodes, meshes, params.palette())
    # (build, *args) and (positions, normals, indices, material) bytes
    # -> index in meshes; the first item, a function or bytes, keeps
    # the two kinds of key apart.
    table: dict = {}

    def mesh(build, *args) -> int:
        """Index of ``build(*args)``, built on the first use of ``args``:
        bitwise the mesh ``build`` gives for the arguments it was first
        built from. A mesh built is appended only if no earlier mesh
        has its content; it is read-only from the moment it is built."""
        key = (build, *args)
        idx = table.get(key)
        if idx is None:
            m = build(*args)
            content = (m.positions.tobytes(), m.normals.tobytes(),
                       m.indices.tobytes(), m.material)
            idx = table[key] = table.setdefault(content, len(meshes))
            if idx == len(meshes):
                meshes.append(m)
        return idx

    def add_node(parent: int, node: SceneNode) -> int:
        nodes.append(node)
        idx = len(nodes) - 1
        nodes[parent].children.append(idx)
        return idx

    max_fan_out = max((cm.fan_out for cm in class_metrics), default=0)
    tree_by_class = {t.class_index: t for t in forest.trees}
    channel_names: dict[str, int] = {}

    # Channels within one package hang under its island, after its
    # trees; channels between packages hang under the root, last.
    local_channels: dict[int, list[ChannelPath]] = {}
    cross_channels: list[ChannelPath] = []
    for channel in forest.channels:
        parent_pkg, child_pkg = (model.package_of[c] for c in channel.edge)
        if parent_pkg == child_pkg:
            local_channels.setdefault(parent_pkg, []).append(channel)
        else:
            cross_channels.append(channel)

    for island in forest.islands:
        pkg = model.packages[island.package_index]
        island_node = add_node(
            0,
            SceneNode(
                f"island:{pkg.name}",
                translation=(island.center[0], 0.0, island.center[1]),
                mesh=mesh(build_island_mesh, tuple(island.bands),
                          tuple(island.tier_heights), params.segments),
            ),
        )
        for class_index in pkg.class_indices:
            cls = model.classes[class_index]
            placement = tree_by_class[class_index]
            qualified = model.qualified_name(class_index)
            dims = tree_dimensions(class_metrics[class_index], max_fan_out, params)
            kinds = [classify_method(m, cls.simple_name) for m in cls.methods]
            tree_node = add_node(
                island_node,
                SceneNode(
                    f"tree:{qualified}",
                    translation=(
                        placement.position[0] - island.center[0],
                        placement.trunk_base_y,
                        placement.position[1] - island.center[1],
                    ),
                ),
            )
            for part in build_tree_parts(qualified, method_labels(cls), kinds, dims,
                                         params.segments, mesh):
                add_node(tree_node, part)
        for channel in local_channels.get(island.package_index, ()):
            add_node(
                island_node,
                SceneNode(
                    _channel_name(model, channel, channel_names),
                    mesh=mesh(build_channel_mesh, tuple(channel.polyline), island.center),
                ),
            )
    for channel in cross_channels:
        add_node(
            0,
            SceneNode(
                _channel_name(model, channel, channel_names),
                mesh=mesh(build_channel_mesh, tuple(channel.polyline)),
            ),
        )
    _check_finite(scene)
    return scene


def _check_finite(scene: Scene) -> None:
    finite_mesh = [all(map(math.isfinite, flat(m.positions))) for m in scene.meshes]
    for node in scene.nodes:
        if not (
            all(map(math.isfinite, node.translation))
            and (node.mesh is None or finite_mesh[node.mesh])
        ):
            raise GeometryOverflow(f"node {node.name!r}")


def _channel_name(model: CodeModel, channel: ChannelPath, used: dict[str, int]) -> str:
    parent_cls, child_cls = channel.edge
    base = f"channel:{model.classes[parent_cls].name}->{model.classes[child_cls].name}"
    n = used.get(base, 0) + 1
    used[base] = n
    return base if n == 1 else f"{base}#{n}"


def world_transforms(scene: Scene) -> list[tuple[float, float, float]]:
    """Per node: world translation (tx, ty, tz), by scene walk."""
    out: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)] * len(scene.nodes)
    stack = [(0, (0.0, 0.0, 0.0))]
    while stack:
        idx, base = stack.pop()
        node = scene.nodes[idx]
        world = (base[0] + node.translation[0], base[1] + node.translation[1],
                 base[2] + node.translation[2])
        out[idx] = world
        for child in node.children:
            stack.append((child, world))
    return out
