"""Spatial layout: island sizing, tree placement, channel routing."""

import math

import pytest

import oracles
from codeforest.config import Config
from codeforest.layout import build_layout, island_rings
from codeforest.lexer import tokenize
from codeforest.model import build_model, resolve_calls, resolve_inheritance
from codeforest.parser import CorpusUnit, parse_unit
from codeforest.pipeline import layout_corpus
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


# ---------------------------------------------------------------------------
# Islands.

def test_island_radius_formula():
    info = corpus("calls")  # one package, three classes
    (island,) = layout_corpus(info).islands
    assert island.radius == pytest.approx(max(1.5 * math.sqrt(3), 2 * 2.0))

    info15 = corpus("jfreechart_annotations")
    (island15,) = layout_corpus(info15).islands
    assert island15.radius == pytest.approx(1.5 * math.sqrt(15))


def test_first_island_sits_at_origin():
    layout = layout_corpus(corpus("multipkg"))
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


def test_tier_heights_are_global():
    # Parent and child live on different islands; heights still step
    # down by tier_drop from the corpus-wide deepest layer.
    layout = layout_corpus(corpus("multipkg"))
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
    layout = layout_corpus(corpus("multipkg"))
    for island, tree in zip(layout.islands, layout.trees):
        assert tree.position == island.center


def test_trees_sorted_by_class_index():
    layout = layout_corpus(corpus("jfreechart_annotations"))
    assert [t.class_index for t in layout.trees] == list(range(15))


def test_two_classes_trunk_heights(two_classes):
    layout = layout_corpus(two_classes)
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


# ---------------------------------------------------------------------------
# Channels.

def test_channel_count_matches_resolved_edges():
    for name in CORPUS_NAMES:
        info = corpus(name)
        layout = layout_corpus(info)
        assert len(layout.channels) == len(info.model.inheritance_edges)


def test_two_classes_channel_shape(two_classes):
    layout = layout_corpus(two_classes)
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
    layout = layout_corpus(corpus("multipkg"))
    (channel,) = layout.channels
    assert len(channel.polyline) == 2
    assert channel.polyline[0][1] == 1.0
    assert channel.polyline[1][1] == 0.0


def test_channels_never_rise():
    for name in CORPUS_NAMES:
        layout = layout_corpus(corpus(name))
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
