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
from codeforest.layout import (
    IslandLayout,
    _too_close,
    build_layout,
    island_rings,
    place_islands,
    place_trees,
)
from codeforest.lexer import tokenize
from codeforest.model import (
    PackageRecord,
    build_model,
    compute_layers,
    resolve_calls,
    resolve_inheritance,
)
from codeforest.parser import CorpusUnit, parse_unit
from conftest import CORPUS_NAMES, corpus


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
    """Count grid queries (spiral candidates, trees) and the clearance
    or pair tests they lead to (items yielded). Past ``limit`` queries,
    fail rather than run on."""
    counts = {"queries": 0, "tests": 0}
    near = layout_mod._Grid.near

    def counted(self, x, z):
        counts["queries"] += 1
        assert limit is None or counts["queries"] <= limit, "too many grid queries"
        for item in near(self, x, z):
            counts["tests"] += 1
            yield item

    monkeypatch.setattr(layout_mod._Grid, "near", counted)
    return counts


# ---------------------------------------------------------------------------
# Islands.

def test_island_radius_formula():
    info = corpus("calls")  # one package, three classes
    (island,) = build_layout(info.model, Config()).islands
    assert island.radius == pytest.approx(max(1.5 * math.sqrt(3), 2 * 2.0))

    info15 = corpus("jfreechart_annotations")
    (island15,) = build_layout(info15.model, Config()).islands
    assert island15.radius == pytest.approx(1.5 * math.sqrt(15))


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
def test_island_centres_match_the_linear_spiral_scan(sizes, s_min, island_margin, base):
    # Radii go up and down, so searches resume from narrower islands'
    # points and restart below wider ones'.
    params = Config(s_min=s_min, island_margin=island_margin, base_radius_per_class=base)
    islands = place_islands(packages_of(sizes), [0] * sum(sizes), params)
    for p, island in enumerate(islands):
        assert island.center == oracles.spiral_slot(islands[:p], island.radius, params)


def test_island_and_tree_work_grows_near_linearly(monkeypatch):
    # Four times the packages (or trees on one island) must cost less
    # than six times the spiral candidates and clearance tests (or pair
    # tests); the linear scans grew about 16x.
    counts = count_grid_work(monkeypatch)
    params = Config()

    def island_work(packages):
        rng = random.Random(packages)
        sizes = [rng.choice((4, 5, 6)) for _ in range(packages)]
        counts.update(queries=0, tests=0)
        place_islands(packages_of(sizes), [0] * sum(sizes), params)
        return dict(counts)

    def tree_work(n):
        # One tier, roomy enough that no pair is close: every tree is
        # checked, none stops the scan early.
        island = IslandLayout(0, (0.0, 0.0), 2.5 * math.sqrt(n), 0, [0.0])
        counts.update(queries=0, tests=0)
        place_trees(island, packages_of([n]), [0] * n, params)
        assert counts["queries"] == n
        return dict(counts)

    pairs = ((island_work(100), island_work(400)), (tree_work(250), tree_work(1000)))
    for small, large in pairs:
        assert large["queries"] > 0 and large["tests"] > 0
        for key in ("queries", "tests"):
            assert large[key] < 6 * small[key], (key, small, large)


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
    assert island_rings(6.0, 2) == [
        (pytest.approx(0.9), pytest.approx(3.0)),
        (pytest.approx(3.9), pytest.approx(6.0)),
    ]


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


def test_crowded_island_falls_back_to_seedless_grid():
    # Fifteen classes over four tiers cannot keep the seeded spiral at
    # s_min; the layout re-grids them, so seeds stop mattering but the
    # separation and containment invariants still hold.
    model = corpus("jfreechart_annotations").model
    a = layout_of(model, seed=0)
    b = layout_of(model, seed=99)
    assert [t.position for t in a.trees] == [t.position for t in b.trees]
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


@st.composite
def point_sets(draw):
    s_min = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.01, 5.0))
    side = s_min * (1.0 + 1e-6)  # the grid's cell side
    coord = st.one_of(
        st.integers(-8, 8).map(lambda k: k * s_min),  # pairs exactly s_min apart
        st.integers(-8, 8).map(lambda k: k * side),  # points on cell boundaries
        st.floats(-20.0, 20.0),
        st.sampled_from([math.inf, -math.inf]),
    )
    points = draw(st.lists(st.tuples(coord, coord), max_size=30))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=3))  # duplicates
    return points, s_min


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example(([(0.0, 0.0), (2.0, 0.0), (0.0, -2.0), (-2.0, 2.0)], 2.0))
@example(([(1.0, 1.0), (-1.0, -1.0), (1.0, 1.0)], 0.5))
@example(([(1e10, 0.0), (-1e10, 3.0), (1e10, 0.0)], 1e-300))  # x / s_min overflows
def test_too_close_matches_the_all_pairs_scan(case):
    points, s_min = case
    assert _too_close(points, s_min) == (oracles.min_pair_distance(points) < s_min)


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
