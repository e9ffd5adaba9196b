"""Spatial layout: island sizing, tree placement, channel routing."""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from codeforest import layout as layout_mod
from codeforest.config import Config
from codeforest.layout import build_layout, place_islands, place_trees, terraces
from codeforest.lexer import tokenize
from codeforest.model import (
    CodeModel,
    PackageRecord,
    build_model,
    compute_layers,
    resolve_calls,
    resolve_inheritance,
)
from codeforest.parser import CorpusUnit, parse_unit
from codeforest.pipeline import analyze
from conftest import CORPUS_NAMES, corpus
from golden.update import BENCH_SEED, REPO, corpora
import synth


def make_model(*sources):
    units = [
        CorpusUnit(f"f{i}.java", parse_unit(tokenize(src.encode(), f"f{i}.java")))
        for i, src in enumerate(sources)
    ]
    model = build_model(units)
    resolve_inheritance(model)
    resolve_calls(model)
    return model


def layout_of(model, **overrides):
    return build_layout(model, Config(**overrides))


def packages_of(sizes):
    """A bare model with one package per size, named in order."""
    packages, first = [], 0
    for p, size in enumerate(sizes):
        packages.append(PackageRecord(f"p{p:04d}", list(range(first, first + size))))
        first += size
    classes = [SimpleNamespace(name=f"C{i:05d}") for i in range(first)]
    return SimpleNamespace(packages=packages, classes=classes)


def count_grid_work(monkeypatch, limit=None):
    """Count grid queries (spiral points looked up) and the clearance
    tests they lead to (cell items iterated, on every visit of a point).
    Past ``limit`` queries, fail rather than run on."""
    counts = {"queries": 0, "tests": 0}
    near = layout_mod._Grid.near

    class Counted:
        """Stands for a cell's own list, which later islands still join."""

        def __init__(self, items):
            self.items = items

        def __iter__(self):
            for item in self.items:
                counts["tests"] += 1
                yield item

    def counted(self, x, z):
        counts["queries"] += 1
        assert limit is None or counts["queries"] <= limit, "too many grid queries"
        return Counted(near(self, x, z))

    monkeypatch.setattr(layout_mod._Grid, "near", counted)
    return counts


def forest(sizes, parents, names=None):
    """A model with one package per size, named in order, whose class
    ``i`` extends class ``parents[i]`` (``None``: a root), in any
    package."""
    model = packages_of(sizes)
    if names is not None:
        model.classes = [SimpleNamespace(name=n) for n in names]
    package_of = [p for p, pkg in enumerate(model.packages) for _ in pkg.class_indices]
    edges = [(child, parent) for child, parent in enumerate(parents) if parent is not None]
    return CodeModel(model.packages, model.classes, package_of, edges)


def terrace_faults(model, params):
    return oracles.terrace_faults(model, compute_layers(model), build_layout(model, params),
                                  params)


# ---------------------------------------------------------------------------
# Islands.

def test_island_radius_formula():
    # The larger of the shore band's outer edge and the floor
    # max(1.5 * sqrt(n), 2 * s_min). calls has two roots on its summit
    # (the centre and a row at s_min) and one child on the shore.
    (island,) = build_layout(corpus("calls").model, Config()).islands
    assert island.bands == [(0.0, 3.0), (4.0, 6.0)]
    assert island.radius == 6.0

    # One tree each: the summit's band (0, 1) widens to the floor, 4.0.
    for island in build_layout(corpus("multipkg").model, Config()).islands:
        assert island.bands == [(0.0, 4.0)] and island.radius == 4.0

    (island15,) = build_layout(corpus("jfreechart_annotations").model,
                               Config(base_radius_per_class=5.0)).islands
    assert island15.radius == pytest.approx(5.0 * math.sqrt(15))
    assert island15.bands[-1][1] == island15.radius


def test_first_island_sits_at_origin():
    layout = build_layout(corpus("multipkg").model, Config())
    assert layout.islands[0].center == (0.0, 0.0)


def test_islands_keep_their_margin():
    model = make_model(
        *(f"package p{i};\nclass C{i} {{ }}" for i in range(6))
    )
    params = Config()
    layout = layout_of(model)
    for i, a in enumerate(layout.islands):
        for b in layout.islands[i + 1:]:
            d = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
            assert d >= a.radius + b.radius + params.island_margin - 1e-9


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 20), min_size=2, max_size=8),
    s_min=st.floats(0.05, 2.0),
    island_margin=st.floats(0.1, 6.0),
    base=st.floats(0.05, 2.0),
)
@example(sizes=[9, 1, 16, 1, 4, 20, 1, 9], s_min=0.5, island_margin=1.0, base=1.5)
@example(sizes=[1, 1, 20, 1, 1, 20, 2, 2], s_min=2.0, island_margin=4.0, base=1.5)
# need * need underflows to 0 here, so an island's own t does not block the next.
@example(sizes=[1, 1, 1, 2], s_min=1e-200, island_margin=1e-200, base=1e-200)
# Wide islands: each search starts past thousands of points the origin
# island blocks, and the widest is not the first.
@example(sizes=[1, 4, 1, 9], s_min=0.5, island_margin=1.0, base=30.0)
# Islands that ring the origin: searches skip bands of blocked points.
@example(sizes=[3] * 8, s_min=2.0, island_margin=4.0, base=30.0)
@example(sizes=[3, 1, 3, 12, 3, 3, 1, 3], s_min=2.0, island_margin=4.0, base=30.0)
@example(sizes=[1, 9, 3, 1, 20, 3, 4, 1], s_min=0.5, island_margin=1.0, base=8.0)
def test_island_centres_match_the_linear_spiral_scan(sizes, s_min, island_margin, base):
    # Radii go up and down, so searches resume from narrower islands'
    # points and restart below wider ones'.
    params = Config(s_min=s_min, island_margin=island_margin, base_radius_per_class=base)
    islands = place_islands(packages_of(sizes), [0] * sum(sizes), params)
    for p, island in enumerate(islands):
        assert island.center == oracles.spiral_slot(islands[:p], island.radius, params)


@pytest.mark.parametrize("kept", [1, 3, 16])
def test_island_centres_match_the_scan_when_few_spiral_points_are_kept(monkeypatch, kept):
    # Past ``_POINTS_KEPT`` points a layout forgets them and computes
    # afresh the ones it visits again, which must move no island.
    monkeypatch.setattr(layout_mod, "_POINTS_KEPT", kept)
    params = Config(base_radius_per_class=8.0)
    sizes = [9, 1, 16, 1, 4, 20, 1, 9]
    islands = place_islands(packages_of(sizes), [0] * sum(sizes), params)
    for p, island in enumerate(islands):
        assert island.center == oracles.spiral_slot(islands[:p], island.radius, params)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=3, max_size=8),
    island_margin=st.floats(0.5, 6.0),
    base=st.floats(5.0, 40.0),
)
@example(sizes=[3] * 8, island_margin=4.0, base=30.0)
def test_a_skipped_band_holds_only_blocked_points(sizes, island_margin, base):
    # Every band that a search skips, checked point by point (its first
    # and last 5,000 points) against the islands placed at the time.
    params = Config(island_margin=island_margin, base_radius_per_class=base)
    band_end, bands = layout_mod._band_end, []

    def recorded(t, n, radius, margin, placed, gain):
        end = band_end(t, n, radius, margin, placed, gain)
        bands.append((t, end, radius, len(placed)))
        return end

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layout_mod, "_band_end", recorded)
        islands = place_islands(packages_of(sizes), [0] * sum(sizes), params)
    for t, end, radius, placed in bands:
        for u in {*range(t, min(end, t + 5000) + 1), *range(max(t, end - 5000), end + 1)}:
            assert oracles.spiral_blocked(islands[:placed], u, radius, params), (t, u, end)


def test_island_work_grows_near_linearly(monkeypatch):
    # Four times the packages must cost less than six times the spiral
    # candidates and clearance tests; the linear scan grew about 16x.
    counts = count_grid_work(monkeypatch)
    params = Config()

    def island_work(packages):
        rng = random.Random(packages)
        sizes = [rng.choice((4, 5, 6)) for _ in range(packages)]
        counts.update(queries=0, tests=0)
        place_islands(packages_of(sizes), [0] * sum(sizes), params)
        return dict(counts)

    small, large = island_work(100), island_work(400)
    assert large["queries"] > 0 and large["tests"] > 0
    for key in ("queries", "tests"):
        assert large[key] < 6 * small[key], (key, small, large)


@pytest.mark.parametrize("base", [30.0, 100.0, 300.0, 1000.0])
def test_islands_that_ring_the_origin_cost_few_queries(monkeypatch, base):
    # Once the first islands ring the origin, every later search crosses
    # a band the ring blocks; walked point by point that took 4,992,
    # 49,763, 435,834 and more than 2 M queries.
    counts = count_grid_work(monkeypatch, limit=10_000)
    islands = place_islands(packages_of([3] * 8), [0] * 24,
                            Config(base_radius_per_class=base))
    assert len(islands) == 8 and counts["queries"] > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), gain=st.floats(1.0, 1e3), margin=st.floats(1e-3, 1e3),
       radii=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
def test_grid_holds_every_island_that_can_block_a_point(data, gain, margin, radii):
    # Sized as place_islands sizes it, for the largest need of any pair;
    # spiral points below t = 2**53 lie within gain * sqrt(2**53) of the
    # origin. Points and centres fall on cell edges too.
    grid = layout_mod._Grid(max(2.0 * max(radii) + margin, gain))
    side = grid.side
    lim = gain * math.sqrt(2**53)
    edges = int(lim / side)
    coordinate = st.one_of(st.floats(-lim, lim),
                           st.integers(-edges, edges).map(lambda k: k * side))
    x, z = data.draw(coordinate), data.draw(coordinate)
    radius = data.draw(st.sampled_from(radii))

    def close_to(v, need):
        # Anywhere in the cells around v, on their edges, or just inside need.
        return st.one_of(st.floats(-1.5, 1.5).map(lambda u: v + u * side),
                         st.integers(-2, 2).map(lambda k: (math.floor(v / side) + k) * side),
                         st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.999, 1.0))
                         .map(lambda su: v + su[0] * su[1] * need))

    items = []
    for other in radii:
        need = radius + other + margin
        item = (data.draw(close_to(x, need)), data.draw(close_to(z, need)), other)
        grid.add(item[0], item[1], item)
        items.append(item)
    found = grid.near(x, z)
    for item in items:
        cx, cz, other = item
        need = radius + other + margin
        if abs(x - cx) < need and abs(z - cz) < need:
            assert any(f is item for f in found), (x, z, item)


def test_trees_are_placed_without_grid_queries(monkeypatch):
    model = corpus("jfreechart_annotations").model
    layers = compute_layers(model)
    (island,) = place_islands(model, layers, Config())
    counts = count_grid_work(monkeypatch)
    assert len(place_trees(island, model, layers, Config())) == 15
    assert counts["queries"] == 0


def test_a_large_base_radius_skips_the_points_the_origin_island_blocks(monkeypatch):
    # At 1e6 the origin island blocks about 10**12 spiral points, which
    # the search once walked one by one.
    counts = count_grid_work(monkeypatch, limit=50)
    info = corpus("multipkg")
    islands = place_islands(info.model, compute_layers(info.model),
                            Config(base_radius_per_class=1e6))
    assert len(islands) == 2 and counts["queries"] > 0


def test_tier_heights_are_global():
    # Parent and child live on different islands; heights still step
    # down by tier_drop from the corpus-wide deepest layer.
    layout = build_layout(corpus("multipkg").model, Config())
    base_island, ext_island = layout.islands
    assert base_island.tier_heights == [1.0]
    assert ext_island.tier_heights == [0.0]


def test_island_rings_example():
    # Seven roots, an empty middle tier and thirteen grandchildren at
    # s_min 2. The summit's centre holds one tree and its rows at 2 and
    # 4 hold 5 and 12 (chord at least 2); the empty tier gets one empty
    # row; each band reaches 1 past its rows, and walls run 1.
    bands, rows = terraces([7, 0, 13], 2.0, "p")
    assert bands == [(0.0, 5.0), (6.0, 8.0), (9.0, 11.0)]
    assert rows == [[(0.0, 1), (2.0, 5), (4.0, 1)], [(7.0, 0)], [(10.0, 13)]]


# ---------------------------------------------------------------------------
# Trees.

def test_single_tree_island_centres_exactly():
    layout = build_layout(corpus("multipkg").model, Config())
    for island, tree in zip(layout.islands, layout.trees):
        assert tree.position == island.center


def test_trees_sorted_by_class_index():
    layout = build_layout(corpus("jfreechart_annotations").model, Config())
    assert [t.class_index for t in layout.trees] == list(range(15))


def test_two_classes_trunk_heights(two_classes):
    layout = build_layout(two_classes.model, Config())
    model = two_classes.model
    y = {model.classes[t.class_index].name: t.trunk_base_y for t in layout.trees}
    assert y == {"Useraaa": 1.0, "Ownerbbb": 0.0}


def test_separation_and_containment_on_a_crowded_island():
    model = make_model(
        "package big;\n" + "\n".join(f"class C{i:02d} {{ }}" for i in range(30))
    )
    layout = layout_of(model)
    (island,) = layout.islands
    points = [t.position for t in layout.trees]
    assert oracles.min_pair_distance(points) >= 2.0 - 1e-9
    for gap in oracles.tree_island_gaps(layout, model.package_of):
        assert gap > 0


def test_seed_moves_trees_on_a_crowded_island():
    # Fifteen classes over four tiers: each tier's rows turn with the
    # seed, and every pair keeps s_min.
    model = corpus("jfreechart_annotations").model
    a = layout_of(model, seed=0)
    b = layout_of(model, seed=99)
    assert [t.position for t in a.trees] != [t.position for t in b.trees]
    for layout in (a, b):
        assert oracles.min_pair_distance([t.position for t in layout.trees]) >= 2.0 - 1e-9


def test_layout_is_deterministic():
    model = corpus("jfreechart_annotations").model
    a = layout_of(model, seed=7)
    b = layout_of(model, seed=7)
    assert [t.position for t in a.trees] == [t.position for t in b.trees]
    assert [i.center for i in a.islands] == [i.center for i in b.islands]
    assert [c.polyline for c in a.channels] == [c.polyline for c in b.channels]


def test_seed_moves_trees_on_a_roomy_island():
    model = make_model(
        "package airy;\n" + "\n".join(f"class C{i} {{ }}" for i in range(4))
    )
    a = layout_of(model, seed=0)
    b = layout_of(model, seed=1)
    assert [t.position for t in a.trees] != [t.position for t in b.trees]
    for layout in (a, b):
        assert oracles.min_pair_distance([t.position for t in layout.trees]) >= 2.0 - 1e-9


# ---------------------------------------------------------------------------
# Terraces: every trunk on its own tier's band, at its height, s_min
# from every other and inside its island.

@st.composite
def forests(draw):
    """A random forest over packages of 1 to 40 classes, whose parents
    may sit in any package, and the s_min and floor to lay it out at."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    parents = [draw(st.none() | st.integers(0, i - 1)) if i else None
               for i in range(sum(sizes))]
    names = draw(st.permutations([f"C{i:03d}" for i in range(sum(sizes))]))
    params = Config(seed=draw(st.integers(0, 3)), s_min=draw(st.floats(0.05, 5.0)),
                    base_radius_per_class=draw(st.floats(0.05, 5.0)))
    return forest(sizes, parents, names), params


@settings(max_examples=100, deadline=None)
@given(forests())
# Layers 0 and 2 on p0000, layer 1 only on p0001: p0000's middle tier is empty.
@example((forest([2, 1], [None, 2, 0]), Config()))
@example((forest([3, 1], [None, 3, 3, 0]), Config(s_min=0.05, base_radius_per_class=5.0)))
# Forty trees on one tier, and a chain across three packages.
@example((forest([40], [None] * 40), Config(s_min=5.0)))
@example((forest([1, 1, 1], [None, 0, 1]), Config()))
def test_random_forests_keep_their_terraces(case):
    model, params = case
    assert terrace_faults(model, params) == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_fixtures_keep_their_terraces(name):
    assert terrace_faults(corpus(name).model, Config()) == []


@pytest.mark.parametrize("seed", range(10))
def test_synth_corpora_keep_their_terraces(seed, tmp_path):
    synth.generate(seed, tmp_path)
    assert terrace_faults(analyze(tmp_path).model, Config()) == []


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_bench_corpora_keep_their_terraces(workload, tmp_path):
    plan = corpora.generate(workload, BENCH_SEED, tmp_path, repo=REPO)
    model = analyze(tmp_path).model
    assert terrace_faults(model, Config(seed=plan.render_seed)) == []


# ---------------------------------------------------------------------------
# Channels.

def test_channel_count_matches_resolved_edges():
    for name in CORPUS_NAMES:
        info = corpus(name)
        layout = build_layout(info.model, Config())
        assert len(layout.channels) == len(info.model.inheritance_edges)


def test_two_classes_channel_shape(two_classes):
    layout = build_layout(two_classes.model, Config())
    model = two_classes.model
    (channel,) = layout.channels
    owner = [c.name for c in model.classes].index("Ownerbbb")
    user = [c.name for c in model.classes].index("Useraaa")
    assert channel.edge == (user, owner)  # (parent, child)

    by_class = {t.class_index: t for t in layout.trees}
    start, end = channel.polyline[0], channel.polyline[-1]
    assert (start[0], start[2]) == by_class[user].position
    assert start[1] == by_class[user].trunk_base_y
    assert (end[0], end[2]) == by_class[owner].position
    assert end[1] == by_class[owner].trunk_base_y

    # One layer apart on one island: flat run, vertical drop, flat run.
    assert len(channel.polyline) == 4
    mid_hi, mid_lo = channel.polyline[1], channel.polyline[2]
    assert (mid_hi[0], mid_hi[2]) == (mid_lo[0], mid_lo[2])
    assert mid_hi[1] == 1.0 and mid_lo[1] == 0.0
    px, pz = by_class[user].position
    cx, cz = by_class[owner].position
    assert mid_hi[0] == pytest.approx((px + cx) / 2)
    assert mid_hi[2] == pytest.approx((pz + cz) / 2)


def test_cross_island_channel_is_straight():
    layout = build_layout(corpus("multipkg").model, Config())
    (channel,) = layout.channels
    assert len(channel.polyline) == 2
    assert channel.polyline[0][1] == 1.0
    assert channel.polyline[1][1] == 0.0


def test_channels_never_rise():
    for name in CORPUS_NAMES:
        layout = build_layout(corpus(name).model, Config())
        if layout.channels:
            assert oracles.worst_channel_rise(layout) <= 1e-12


def test_deep_chain_channels_each_drop_one_tier():
    # With single-parent inheritance a child always sits one layer below
    # its parent, so every same-island channel is flat-drop-flat.
    model = make_model(
        "package deep;\nclass A { }",
        "package deep;\nclass B extends A { }",
        "package deep;\nclass C extends B { }",
        "package deep;\nclass D extends C { }",
    )
    layout = layout_of(model)
    assert len(layout.channels) == 3
    for ch in layout.channels:
        assert len(ch.polyline) == 4
        ys = [p[1] for p in ch.polyline]
        assert ys[0] == ys[1] and ys[2] == ys[3]
        assert ys[1] - ys[2] == pytest.approx(1.0)
        assert ys == sorted(ys, reverse=True)
