"""Deterministic spatial layout: islands, trees and water channels.

One island per package, one tree per class, one channel per resolved
inheritance edge. All coordinates are pure functions of the model and
the ``Config`` (``seed``, ``s_min``, ``tier_drop``,
``base_radius_per_class``, ``island_margin``), with no global random
state: the only randomness is a hash-derived start angle per seed and
layer.

Vertical structure follows inheritance layers computed corpus-wide:
layer ``k`` stands at ``(max_layer - k) * tier_drop``, so roots are
always highest and every channel can run downhill, even between
islands. Radially, an island is terraced: the lowest layer present on
the island is its summit disc and deeper layers occupy concentric flat
bands further out and further down, joined by walls.

Each tier is sized for its own trees (``terraces``). Its trees stand
on rows ``s_min`` apart, outward from the summit's centre, and a row
holds as many as keep a chord of at least ``s_min``. Each band
surrounds its rows by ``s_min / 2``, and a wall of fixed run joins it
to the next, so any two trees, on one row, on neighbouring rows or on
neighbouring tiers, are at least ``s_min`` apart by construction, and
every tree stands on its own tier's band at its own height. The island
radius is the shore band's outer edge, widened where needed to the
floor ``max(base_radius_per_class * sqrt(n), 2 * s_min)``.

Island placement makes the same decisions, float for float, as the
linear scan it replaces (the tests keep that scan as an oracle): each
island sits on the first golden-angle spiral point that clears every
placed island. A search skips only points whose outcome is known. It
starts past the points that lie well inside the origin island's
clearance, and at the largest point taken by an island no wider, since
clearance ``need`` rounds monotonically in the radius. A spiral point
is computed once per layout (up to ``_POINTS_KEPT`` at a time), with
the cell of a uniform grid (``_Grid``) that lists every placed island
near it, so a visit costs one lookup. After a long run of blocked
points, a search skips a band of radii on which the placed islands'
clearance discs cover every angle (``_band_end``).
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import TYPE_CHECKING

from .errors import GeometryOverflow
from .model import CodeModel, compute_layers

if TYPE_CHECKING:
    from .config import Config

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# Horizontal run of the wall between two bands, in units of s_min.
_WALL_RUN = 0.5

# Blocked points a search walks before it first tries to skip a band.
_SKIP_RUN = 256
# Spiral points a layout keeps; past this many it starts afresh, so a
# long walk does not grow memory.
_POINTS_KEPT = 1 << 16


class IslandLayout:
    __slots__ = ("package_index", "center", "radius", "layer_lo", "tier_heights", "bands")

    def __init__(self, package_index: int, center: tuple[float, float], radius: float,
                 layer_lo: int, tier_heights: list[float], bands: list[tuple[float, float]]):
        self.package_index = package_index
        self.center = center  # (x, z)
        self.radius = radius
        self.layer_lo = layer_lo  # lowest layer number present = summit
        self.tier_heights = tier_heights  # y per layer, index 0 = layer_lo, last = shore
        self.bands = bands  # flat (inner, outer) radii per tier, likewise


class TreePlacement:
    __slots__ = ("class_index", "position", "trunk_base_y")

    def __init__(self, class_index: int, position: tuple[float, float], trunk_base_y: float):
        self.class_index = class_index
        self.position = position  # (x, z)
        self.trunk_base_y = trunk_base_y


class ChannelPath:
    __slots__ = ("edge", "polyline")

    def __init__(self, edge: tuple[int, int], polyline: list[tuple[float, float, float]]):
        self.edge = edge  # (parent class index, child class index)
        self.polyline = polyline


class ForestLayout:
    __slots__ = ("islands", "trees", "channels")

    def __init__(self, islands: list[IslandLayout], trees: list[TreePlacement],
                 channels: list[ChannelPath]):
        self.islands = islands
        self.trees = trees
        self.channels = channels


def _hash01(*parts) -> float:
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def terraces(
    counts: list[int], s_min: float, name: str
) -> tuple[list[tuple[float, float]], list[list[tuple[float, int]]]]:
    """Flat bands and tree rows for tiers holding ``counts`` trees, summit first.

    Rows stand ``s_min`` apart, outward from the summit's centre. A row
    of radius ``r`` holds as many trees as keep a chord of at least
    ``s_min`` and is filled before the next one out. A band reaches
    ``s_min / 2`` past its rows, and a wall of run ``_WALL_RUN *
    s_min`` leads down to the next band. Returns the (inner, outer)
    radii of each band (the summit's inner is 0) and each tier's rows
    as (radius, trees) pairs; an empty tier gets one empty row. Raises
    ``GeometryOverflow`` for island ``name`` at the first band edge
    that is not finite.
    """
    half = 0.5 * s_min
    bands: list[tuple[float, float]] = []
    rows: list[list[tuple[float, int]]] = []
    for n in counts:
        r = bands[-1][1] + _WALL_RUN * s_min + half if bands else 0.0
        inner = r - half if bands else 0.0
        tier_rows = []
        while True:
            outer = r + half
            if not math.isfinite(outer):
                raise GeometryOverflow(f"island {name!r}")
            fit = math.floor(math.pi / math.asin(0.5 * (s_min / r))) if r else 1
            tier_rows.append((r, min(fit, n)))
            n -= fit
            if n <= 0:
                break
            r += s_min
        bands.append((inner, outer))
        rows.append(tier_rows)
    return bands, rows


def place_islands(
    model: CodeModel, layers: list[int], params: Config
) -> list[IslandLayout]:
    """Terrace islands for their trees and wind them onto a spiral.

    Each island's bands come from ``terraces`` over its per-layer tree
    counts, and its radius is the larger of the shore band's outer edge
    and ``max(base_radius_per_class * sqrt(n), 2 * s_min)``; only the
    shore band widens to it. Islands appear in package-name order; the
    first sits at the origin, each later one at the first point ``t =
    1, 2, ...`` of a golden-angle spiral that clears every placed island
    by at least ``island_margin`` (``dx*dx + dz*dz >= need*need``). Raises
    ``GeometryOverflow``, before any island is placed, for the first
    radius that is not finite, or whose squared clearance from an
    earlier island is not: the spiral could never clear it. It does so
    too for a radius whose search would start at ``t = 2**53`` or
    later, where consecutive spiral points are no longer distinct
    floats.

    Four shortcuts keep that choice and skip only work whose outcome
    is known:

    * The search for an island starts past every ``t`` whose point the
      origin island surely blocks: ``gain * sqrt(t)``, the point's
      distance from the origin, is at most ``need * (1 - 1e-12)`` for
      the ``need`` between the two. ``dx*dx + dz*dz`` rounds by about
      1e-15 of itself, far less, so each of those points fails the
      exact test. Without this a large size walks about ``(need /
      gain)**2`` blocked points, ``10**12`` for a ``1e6`` radius.
    * The search for an island starts at the largest ``t`` taken so
      far by an island no wider than it. Every point before that ``t``
      was blocked for the narrower island by an island that is still
      placed, and ``need`` never shrinks as ``radius`` grows (float
      addition and multiplication round monotonically), so it is
      blocked for this one too. The ``t`` itself is tested again: an
      island sits there, but ``need * need`` may underflow to 0.
    * A point is tested only against the islands listed in its own
      ``_Grid`` cell, which every island within the largest ``need`` of
      any pair joins (see ``_Grid``). A point's coordinates and that
      list are kept by ``t``, so a point that a later search walks again
      costs one dict lookup. Newest islands come first in a list: they
      most often block the points a search walks.
    * After ``_SKIP_RUN`` blocked points in a row, a search asks
      ``_band_end`` whether the placed islands surely block the next
      points too, and resumes the exact test past the band they block.
      Each check that skips nothing doubles the run to the next, so a
      layout whose islands leave gaps pays little for the checks.
      Without this, islands that ring the origin make every later
      search walk about ``(size / gain)**2`` points they block.
    """
    gmax = max(layers, default=0)
    margin = params.island_margin
    gain = max(1.0, 0.5 * margin)
    islands: list[IslandLayout] = []
    # The last t whose point the origin island surely blocks, per island.
    origin_blocks: list[int] = []
    widest = 0.0  # largest radius so far
    for p, pkg in enumerate(model.packages):
        member_layers = [layers[i] for i in pkg.class_indices]
        lo = min(member_layers)
        counts = [0] * (max(member_layers) - lo + 1)
        for k in member_layers:
            counts[k - lo] += 1
        bands, _ = terraces(counts, params.s_min, pkg.name)
        # Only the shore band widens, to the floor the class count sets.
        radius = max(bands[-1][1], 2.0 * params.s_min,
                     params.base_radius_per_class * math.sqrt(len(member_layers)))
        reach = radius + widest + margin
        if not math.isfinite(radius) or (islands and not math.isfinite(reach * reach)):
            raise GeometryOverflow(f"island {pkg.name!r}")
        blocked = _origin_blocks(radius + islands[0].radius + margin, gain) if islands else 0
        if blocked >= 2**53:
            raise GeometryOverflow(f"island {pkg.name!r}")
        widest = max(widest, radius)
        bands[-1] = (bands[-1][0], radius)
        heights = [(gmax - k) * params.tier_drop for k in range(lo, lo + len(counts))]
        islands.append(IslandLayout(p, (0.0, 0.0), radius, lo, heights, bands))
        origin_blocks.append(blocked)

    # A side of at least ``gain`` keeps every cell number small.
    grid = _Grid(max(2.0 * widest + margin, gain))
    # Where searches resume: radii ascending, each with the largest t
    # taken by an island of that radius or less, so t ascends too.
    resume_r: list[float] = []
    resume_t: list[int] = []
    # Spiral points by t: x, z and the grid cell's list.
    points: dict[int, tuple[float, float, list]] = {}
    # Placed islands as (distance from the origin, angle, radius).
    placed: list[tuple[float, float, float]] = []
    if islands:
        grid.add(0.0, 0.0, (0.0, 0.0, islands[0].radius))
        placed.append((0.0, 0.0, islands[0].radius))
    for island, blocked in zip(islands[1:], origin_blocks[1:]):
        radius = island.radius
        at = bisect.bisect_right(resume_r, radius)
        t = max(resume_t[at - 1] - 1 if at else 0, blocked)
        gap = _SKIP_RUN
        check = t + gap
        while True:
            t += 1
            p = points.get(t)
            if p is None:
                if len(points) >= _POINTS_KEPT:
                    points.clear()
                r = gain * math.sqrt(t)
                x = r * math.cos(t * GOLDEN_ANGLE)
                z = r * math.sin(t * GOLDEN_ANGLE)
                p = points[t] = (x, z, grid.near(x, z))
            x, z, cell = p
            for cx, cz, other in cell:
                dx = x - cx
                dz = z - cz
                need = radius + other + margin
                if dx * dx + dz * dz < need * need:
                    break
            else:
                break
            if t >= check:
                end = _band_end(t + 1, gap, radius, margin, placed, gain)
                if end == t:
                    gap *= 2
                check = end + gap
                t = end
        at = end = bisect.bisect_left(resume_r, radius)
        while end < len(resume_t) and resume_t[end] <= t:
            end += 1
        resume_r[at:end] = [radius]
        resume_t[at:end] = [t]
        island.center = (x, z)
        grid.add(x, z, (x, z, radius))
        placed.append((math.hypot(x, z), math.atan2(z, x), radius))
    return islands


def _origin_blocks(need: float, gain: float) -> int:
    """The largest ``t`` with ``gain * sqrt(t) <= need * (1 - 1e-12)``, or 0.

    ``gain * sqrt(t)`` never falls as ``t`` grows, so every smaller ``t``
    passes the test too. From ``2**53`` on, the estimate is returned as
    it is: ``t`` and ``t + 1`` may be the same float there.
    """
    bound = need * (1.0 - 1e-12)
    t = math.floor((bound / gain) ** 2)
    if t >= 2**53:
        return t
    while t > 0 and gain * math.sqrt(t) > bound:
        t -= 1
    while gain * math.sqrt(t + 1) <= bound:
        t += 1
    return t


def _band_end(t: int, n: int, radius: float, margin: float, placed, gain: float) -> int:
    """The last ``u >= t + n - 1`` such that the placed islands surely
    block every spiral point from ``t`` to ``u`` for an island of
    ``radius``, or ``t - 1`` if they do not surely block the first ``n``.

    A placed island of radius ``r`` blocks the open disc of radius
    ``need = radius + r + margin`` about its centre. A radial segment
    lies in a disc if and only if both its ends do, so on the band of
    radii ``[lo, hi]`` the disc blocks every angle of the arc it blocks
    on both rims, the narrower of the two: both are centred on the
    island's own angle. The band is blocked where those arcs cover the
    circle. ``lo`` and ``hi`` lie 1e-9 outside the radii of points ``t``
    and ``u``, far more than the rounding of a point's distance from the
    origin. Each arc is taken for the disc shrunk by 1e-6 of its radius,
    and only for a disc less than 1e4 radii from the origin: the
    rounding of the arc's width and angle then moves its ends by far
    less than that slack, so every point of the band lies inside some
    unshrunk disc by much more than the rounding of the exact test. The
    band grows from ``n`` points by doubling, then by bisection.
    """
    lo = gain * math.sqrt(t) * (1.0 - 1e-9)
    arcs = []
    for d, angle, other in placed:
        m = (radius + other + margin) * (1.0 - 1e-6)
        h = _arc(lo, d, m)
        if h > 0.0 and d < 1e4 * m:
            arcs.append((angle, d, m, h))

    def covered(u: int) -> bool:
        hi = gain * math.sqrt(u) * (1.0 + 1e-9)
        spans = []
        for angle, d, m, h in arcs:
            h = min(h, _arc(hi, d, m))
            if h >= math.pi:
                return True
            if h > 0.0:
                spans.append(((angle - h) % math.tau, 2.0 * h))
        if not spans:
            return False
        spans.sort()
        start = end = spans[0][0]
        for s, w in spans:
            if s > end:
                return False
            end = max(end, s + w)
        return end >= start + math.tau

    if not covered(t + n - 1):
        return t - 1
    while covered(t + 2 * n - 1):
        n *= 2
    # Points t .. t + n - 1 are blocked, t .. t + 2n - 1 perhaps not.
    step = n
    while step > 1:
        step //= 2
        if covered(t + n + step - 1):
            n += step
    return t + n - 1


def _arc(rho: float, d: float, m: float) -> float:
    """Half-width of the arc that the disc of radius ``m``, centred ``d``
    from the origin, cuts from the circle of radius ``rho`` about the
    origin: ``pi`` for the whole circle, 0 for none."""
    if rho + d <= m:
        return math.pi
    if abs(rho - d) >= m:
        return 0.0
    # sin(h / 2)**2 = (m*m - (rho - d)**2) / (4 * rho * d), the law of
    # cosines without its cancelling terms.
    return 2.0 * math.asin(math.sqrt(min(1.0, (m - rho + d) * (m + rho - d) / (4.0 * rho * d))))


class _Grid:
    """Items at points in the plane, each listed, newest first, in the
    3x3 block of square cells around its own cell.

    ``near(x, z)`` returns the list of the cell of ``(x, z)``: every item
    within ``reach`` of ``(x, z)`` on both axes, and perhaps a few more.
    An island blocks a point only if ``dx*dx + dz*dz < need*need``, so
    each of ``dx`` and ``dz`` rounds below ``need``, and ``need <=
    reach``. A cell's side is ``reach * (1 + 1e-6)``, so two points
    closer than ``reach`` on an axis have exact quotients by the side
    that differ by less than ``1 - 1e-6`` there. Below ``t = 2**53`` a
    spiral point is at most ``sqrt(2**53)`` sides from the origin (a
    side is at least ``gain``), so each division rounds by about 1e-8,
    far less than that gap, and the two cells are at most one apart.

    The returned list is the cell's own: items added later show in it.
    """

    def __init__(self, reach: float) -> None:
        self.side = reach * (1.0 + 1e-6)
        self.cells: dict[tuple[int, int], list] = {}

    def add(self, x: float, z: float, item) -> None:
        i, j = math.floor(x / self.side), math.floor(z / self.side)
        for key in ((i + a, j + b) for a in (-1, 0, 1) for b in (-1, 0, 1)):
            self.cells.setdefault(key, []).insert(0, item)

    def near(self, x: float, z: float) -> list:
        key = (math.floor(x / self.side), math.floor(z / self.side))
        return self.cells.setdefault(key, [])


def place_trees(
    island: IslandLayout,
    model: CodeModel,
    layers: list[int],
    params: Config,
) -> list[TreePlacement]:
    """Deal each layer's trees, in name order, onto its tier's rows.

    A row of ``m`` trees spaces them ``2 * pi / m`` apart, the first at
    the angle ``2 * pi * _hash01(seed, "theta0", layer)``. The angle
    leaves the package out, so islands with equal tiers and counts get
    equal rows and share their meshes.
    """
    pkg = model.packages[island.package_index]
    by_tier: list[list[int]] = [[] for _ in island.tier_heights]
    for idx in sorted(pkg.class_indices, key=lambda i: model.classes[i].name):
        by_tier[layers[idx] - island.layer_lo].append(idx)
    _, rows = terraces([len(group) for group in by_tier], params.s_min, pkg.name)
    cx, cz = island.center
    trees = []
    for u, (group, tier_rows) in enumerate(zip(by_tier, rows)):
        start = 2.0 * math.pi * _hash01(params.seed, "theta0", island.layer_lo + u)
        dealt = iter(group)
        for r, m in tier_rows:
            for i in range(m):
                theta = start + 2.0 * math.pi * i / m
                trees.append(TreePlacement(
                    next(dealt), (cx + r * math.cos(theta), cz + r * math.sin(theta)),
                    island.tier_heights[u]))
    return trees


def route_channels(
    model: CodeModel,
    layers: list[int],
    trees: list[TreePlacement],
    params: Config,
) -> list[ChannelPath]:
    """One downhill polyline per resolved inheritance edge.

    Same-island channels descend terrace by terrace: flat runs at each
    tier height with vertical drops at evenly spaced step points.
    Cross-island channels take the straight elevated line between the
    two trunk bases. Because layer heights are global, the child end
    is always strictly lower and y never increases along a path.
    """
    by_class = {t.class_index: t for t in trees}
    gmax = max(layers, default=0)
    height_of = lambda k: (gmax - k) * params.tier_drop
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
    islands = place_islands(model, layers, params)
    trees: list[TreePlacement] = []
    for island in islands:
        trees.extend(place_trees(island, model, layers, params))
    trees.sort(key=lambda t: t.class_index)
    channels = route_channels(model, layers, trees, params)
    return ForestLayout(islands, trees, channels)
