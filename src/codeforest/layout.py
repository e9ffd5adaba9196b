"""Deterministic spatial layout: islands, trees and water channels.

One island per package, one tree per class, one channel per resolved
inheritance edge. All coordinates are pure functions of the model and
the ``Config`` (``seed``, ``s_min``, ``tier_drop``,
``base_radius_per_class``, ``island_margin``), with no global random
state: the only randomness is hash-derived jitter keyed on seed,
package and class names.

Vertical structure follows inheritance layers computed corpus-wide:
layer ``k`` stands at ``(max_layer - k) * tier_drop``, so roots are
always highest and every channel can run downhill, even between
islands. Radially, an island is terraced: the lowest layer present on
the island is its summit disc and deeper layers occupy concentric
annuli further out and further down.

Within an annulus, trees step around a golden-angle spiral in class
name order from a seed-derived start angle, perturbed by jitter of at
most ``0.25 * s_min``. If that leaves two trunks closer than
``s_min``, positions are scaled radially outward, and as a last resort
re-gridded hexagonally (nearest slots to the centre go to the lowest
layers), so the separation invariant holds for any corpus that
physically fits its island.

Island placement and the tree separation check cost about n log n,
not n², and make the same decisions, float for float, as the all-pairs
scans they replace (the tests keep those scans as oracles). Islands sit
on the first golden-angle spiral point that clears every placed island.
Each spiral search resumes at the largest point taken by an island no
wider than the new one: every earlier point was blocked for that
island, and stays blocked for a wider one, because the clearance
``need`` rounds monotonically in the radius. Clearance and separation
tests look only at a uniform grid's neighbouring cells (``_Grid``). A
cell is at least as wide as the largest distance that can fail a test
on one axis, and cells are numbered by monotone rounding, so no failing
neighbour is skipped.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import GeometryOverflow, IslandTooSmall
from .model import CodeModel, compute_layers

if TYPE_CHECKING:
    from .config import Config

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# Share of each tier's radial width spent on the sloped wall between
# terraces; the rest is flat, plantable ground.
_WALL_RUN = 0.3
_EDGE_PAD = 0.08


@dataclass
class IslandLayout:
    package_index: int
    center: tuple[float, float]  # (x, z)
    radius: float
    layer_lo: int  # lowest layer number present = summit
    layer_hi: int  # highest layer number present = shore
    tier_heights: list[float]  # y per layer, index 0 = layer_lo


@dataclass
class TreePlacement:
    class_index: int
    position: tuple[float, float]  # (x, z)
    layer: int
    trunk_base_y: float


@dataclass
class ChannelPath:
    edge: tuple[int, int]  # (parent class index, child class index)
    polyline: list[tuple[float, float, float]]


@dataclass
class ForestLayout:
    global_max_layer: int
    islands: list[IslandLayout]
    trees: list[TreePlacement]
    channels: list[ChannelPath]


def _hash01(*parts) -> float:
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def island_rings(radius: float, tiers: int) -> list[tuple[float, float]]:
    """Flat-annulus (inner, outer) radii per tier, summit first.

    Tier ``u`` ends at ``radius * (u + 1) / tiers``; the first
    ``_WALL_RUN`` share of each tier's width is the sloped wall coming
    up from the next terrace out (for the summit: the cap disc).
    """
    step = radius / tiers
    rings = []
    for u in range(tiers):
        outer = step * (u + 1)
        inner = step * u + _WALL_RUN * step
        rings.append((inner, outer))
    return rings


def place_islands(
    model: CodeModel, layers: list[int], params: Config
) -> list[IslandLayout]:
    """Size islands from class counts and wind them onto a spiral.

    Islands appear in package-name order; the first sits at the
    origin, each later one at the first point ``t = 1, 2, ...`` of a
    golden-angle spiral that clears every placed island by at least
    ``island_margin`` (``dx*dx + dz*dz >= need*need``). Raises
    ``GeometryOverflow``, before any island is placed, for the first
    radius that is not finite, or whose squared clearance from an
    earlier island is not: the spiral could never clear it.

    Two shortcuts keep that choice and skip only work whose outcome is
    known:

    * The search for an island starts at the largest ``t`` taken so
      far by an island no wider than it. Every point before that ``t``
      was blocked for the narrower island by an island that is still
      placed, and ``need`` never shrinks as ``radius`` grows (float
      addition and multiplication round monotonically), so it is
      blocked for this one too. The ``t`` itself is tested again: an
      island sits there, but ``need * need`` may underflow to 0.
    * A point is tested only against the islands a ``_Grid`` holds
      near it. Its cell side is at least the largest ``need`` of any
      pair, and a blocking island is closer than its ``need`` on each
      axis.
    """
    gmax = max(layers, default=0)
    margin = params.island_margin
    radii: list[float] = []
    widest = 0.0  # largest radius so far
    for pkg in model.packages:
        count = len(pkg.class_indices)
        radius = max(params.base_radius_per_class * math.sqrt(count), 2.0 * params.s_min)
        reach = radius + widest + margin
        if not math.isfinite(radius) or (radii and not math.isfinite(reach * reach)):
            raise GeometryOverflow(f"island {pkg.name!r}")
        widest = max(widest, radius)
        radii.append(radius)

    gain = max(1.0, 0.5 * margin)
    # A side of at least ``gain`` keeps every cell number small.
    grid = _Grid(max(2.0 * widest + margin, gain) * (1.0 + 1e-6))
    # Where searches resume: radii ascending, each with the largest t
    # taken by an island of that radius or less, so t ascends too.
    resume_r: list[float] = []
    resume_t: list[int] = []
    islands: list[IslandLayout] = []
    for p, (pkg, radius) in enumerate(zip(model.packages, radii)):
        if islands:
            at = bisect.bisect_right(resume_r, radius)
            t = resume_t[at - 1] - 1 if at else 0
            while True:
                t += 1
                r = gain * math.sqrt(t)
                x = r * math.cos(t * GOLDEN_ANGLE)
                z = r * math.sin(t * GOLDEN_ANGLE)
                for cx, cz, other in grid.near(x, z):
                    dx = x - cx
                    dz = z - cz
                    need = radius + other + margin
                    if dx * dx + dz * dz < need * need:
                        break
                else:
                    break
            at = end = bisect.bisect_left(resume_r, radius)
            while end < len(resume_t) and resume_t[end] <= t:
                end += 1
            resume_r[at:end] = [radius]
            resume_t[at:end] = [t]
            center = (x, z)
        else:
            center = (0.0, 0.0)
        grid.add(*center, (*center, radius))
        member_layers = [layers[i] for i in pkg.class_indices]
        lo, hi = min(member_layers), max(member_layers)
        islands.append(
            IslandLayout(
                package_index=p,
                center=center,
                radius=radius,
                layer_lo=lo,
                layer_hi=hi,
                tier_heights=[(gmax - k) * params.tier_drop for k in range(lo, hi + 1)],
            )
        )
    return islands


class _Grid:
    """Items at points in the plane, bucketed in square cells.

    ``near(x, z)`` yields every item whose point lies within ``side``
    of ``(x, z)`` on both axes, and perhaps a few more: it scans the
    cells from that of ``x - side`` to that of ``x + side`` on each
    axis. Rounding is monotone, so a point between the two ends has a
    cell between them too, at any magnitude; in practice that is the
    3x3 block around ``(x, z)``.
    """

    def __init__(self, side: float) -> None:
        self.side = side
        self.cells: dict[tuple[int, int], list] = {}

    def add(self, x: float, z: float, item) -> None:
        key = (math.floor(x / self.side), math.floor(z / self.side))
        self.cells.setdefault(key, []).append(item)

    def near(self, x: float, z: float):
        side, cells = self.side, self.cells
        zs = range(math.floor((z - side) / side), math.floor((z + side) / side) + 1)
        for i in range(math.floor((x - side) / side), math.floor((x + side) / side) + 1):
            for j in zs:
                yield from cells.get((i, j), ())


def place_trees(
    island: IslandLayout,
    model: CodeModel,
    layers: list[int],
    params: Config,
    global_max_layer: int,
) -> list[TreePlacement]:
    """Position one tree per class on the island's terraces."""
    pkg = model.packages[island.package_index]
    members = sorted(pkg.class_indices, key=lambda i: model.classes[i].name)
    cx, cz = island.center
    height_of = lambda k: (global_max_layer - k) * params.tier_drop

    if len(members) == 1:
        # A lone tree sits exactly at the summit centre, unjittered.
        only = members[0]
        return [
            TreePlacement(only, (cx, cz), layers[only], height_of(layers[only]))
        ]

    tiers = island.layer_hi - island.layer_lo + 1
    rings = island_rings(island.radius, tiers)
    pad = _EDGE_PAD * island.radius / tiers

    by_layer: dict[int, list[int]] = {}
    for idx in members:
        by_layer.setdefault(layers[idx], []).append(idx)

    rel: dict[int, tuple[float, float]] = {}
    pkg_name = pkg.name
    for layer_k in sorted(by_layer):
        group = by_layer[layer_k]
        u = layer_k - island.layer_lo
        inner, outer = rings[u]
        lo_r = 0.0 if u == 0 else inner + pad
        hi_r = max(outer - pad, lo_r + 1e-9)
        start = 2.0 * math.pi * _hash01(params.seed, "theta0", pkg_name, layer_k)
        n = len(group)
        for i, class_index in enumerate(group):
            if lo_r == 0.0:
                r = hi_r * math.sqrt(i / n)
            else:
                r = lo_r + (hi_r - lo_r) * math.sqrt((i + 0.5) / n)
            theta = start + i * GOLDEN_ANGLE
            name = model.classes[class_index].name
            jr = 0.25 * params.s_min * _hash01(params.seed, "jr", pkg_name, name)
            jt = 2.0 * math.pi * _hash01(params.seed, "jt", pkg_name, name)
            rel[class_index] = (
                r * math.cos(theta) + jr * math.cos(jt),
                r * math.sin(theta) + jr * math.sin(jt),
            )

    rel = _enforce_separation(rel, island.radius, params.s_min, pkg_name)
    return [
        TreePlacement(
            idx,
            (cx + rel[idx][0], cz + rel[idx][1]),
            layers[idx],
            height_of(layers[idx]),
        )
        for idx in members
    ]


def _too_close(points: list[tuple[float, float]], s_min: float) -> bool:
    """Whether some two points are closer than ``s_min``.

    Makes the all-pairs test ``math.hypot(dx, dz) < s_min``, but only
    on the pairs a ``_Grid`` leaves, and stops at the first close one.
    A close pair is less than ``s_min`` apart on each axis; the cell
    side's ``1e-6`` slack covers the last bit of ``hypot``. A point
    with a non-finite coordinate is close to nothing under that test,
    so it is left out; the side grows with the points' extent, so no
    cell number overflows.
    """
    finite = [p for p in points if math.isfinite(p[0]) and math.isfinite(p[1])]
    extent = max((abs(c) for p in finite for c in p), default=0.0)
    grid = _Grid(max(s_min * (1.0 + 1e-6), extent * 2.0**-40))
    for x, z in finite:
        for px, pz in grid.near(x, z):
            if math.hypot(x - px, z - pz) < s_min:
                return True
        grid.add(x, z, (x, z))
    return False


def _enforce_separation(
    rel: dict[int, tuple[float, float]], radius: float, s_min: float, package: str
) -> dict[int, tuple[float, float]]:
    order = sorted(rel)
    pts = [rel[i] for i in order]
    if not _too_close(pts, s_min):
        return rel

    # First remedy: scale everything radially outward from the centre.
    max_r = max(math.hypot(x, z) for x, z in pts) or 1e-9
    factor = 1.0
    while factor * 1.06 * max_r <= 0.96 * radius:
        factor *= 1.06
        scaled = [(x * factor, z * factor) for x, z in pts]
        if not _too_close(scaled, s_min):
            return dict(zip(order, scaled))

    # Last resort: hexagonal slots, nearest-to-centre first. Their sort
    # key squares coordinates up to the radius.
    if not math.isfinite(radius * radius):
        raise GeometryOverflow(f"island {package!r}")
    slots = _hex_slots(radius * 0.95, s_min * 1.05)
    if len(slots) < len(order):
        slots = _hex_slots(radius * 0.97, s_min * 1.0005)
    if len(slots) < len(order):
        raise IslandTooSmall(package, len(order), s_min, radius)
    return dict(zip(order, slots[: len(order)]))


def _hex_slots(radius: float, spacing: float) -> list[tuple[float, float]]:
    rows = int(radius / (spacing * math.sqrt(3.0) / 2.0)) + 1
    cols = int(radius / spacing) + 1
    out = []
    for kz in range(-rows, rows + 1):
        z = kz * spacing * math.sqrt(3.0) / 2.0
        shift = 0.5 * spacing if kz % 2 else 0.0
        for kx in range(-cols - 1, cols + 2):
            x = kx * spacing + shift
            if x * x + z * z <= radius * radius:
                out.append((x, z))
    out.sort(key=lambda p: (round(p[0] ** 2 + p[1] ** 2, 9), math.atan2(p[1], p[0])))
    return out


def route_channels(
    model: CodeModel,
    layers: list[int],
    trees: list[TreePlacement],
    params: Config,
    global_max_layer: int,
) -> list[ChannelPath]:
    """One downhill polyline per resolved inheritance edge.

    Same-island channels descend terrace by terrace: flat runs at each
    tier height with vertical drops at evenly spaced step points.
    Cross-island channels take the straight elevated line between the
    two trunk bases. Because layer heights are global, the child end
    is always strictly lower and y never increases along a path.
    """
    by_class = {t.class_index: t for t in trees}
    height_of = lambda k: (global_max_layer - k) * params.tier_drop
    channels = []
    for child, parent in model.inheritance_edges:
        tp = by_class[parent]
        tc = by_class[child]
        px, pz = tp.position
        cx, cz = tc.position
        same_island = model.package_of[parent] == model.package_of[child]
        if same_island:
            kp, kc = layers[parent], layers[child]
            steps = kc - kp
            points = [(px, tp.trunk_base_y, pz)]
            for m in range(1, steps + 1):
                t = m / (steps + 1)
                x = px + (cx - px) * t
                z = pz + (cz - pz) * t
                points.append((x, height_of(kp + m - 1), z))
                points.append((x, height_of(kp + m), z))
            points.append((cx, tc.trunk_base_y, cz))
        else:
            points = [(px, tp.trunk_base_y, pz), (cx, tc.trunk_base_y, cz)]
        channels.append(ChannelPath((parent, child), points))
    return channels


def build_layout(model: CodeModel, params: Config) -> ForestLayout:
    """Full layout pass: layers, islands, trees, channels."""
    layers = compute_layers(model)
    gmax = max(layers, default=0)
    islands = place_islands(model, layers, params)
    trees: list[TreePlacement] = []
    for island in islands:
        trees.extend(place_trees(island, model, layers, params, gmax))
    trees.sort(key=lambda t: t.class_index)
    channels = route_channels(model, layers, trees, params, gmax)
    return ForestLayout(gmax, islands, trees, channels)
