"""Model assembly, name resolution, metrics and their hand-checked values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from codeforest.errors import DuplicateClassName, InheritanceCycle
from codeforest.lexer import tokenize
from codeforest.model import (
    CallEdge,
    build_model,
    classify_method,
    compute_cohesion,
    compute_layers,
    compute_metrics,
    corpus_totals,
    method_labels,
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


def qnames(model):
    return [model.qualified_name(i) for i in range(len(model.classes))]


# ---------------------------------------------------------------------------
# Assembly and ordering.

def test_classes_sorted_by_package_then_name():
    model = make_model(
        "package zz;\nclass A { }",
        "package aa;\nclass Z { }\nclass B { }",
    )
    assert qnames(model) == ["aa.B", "aa.Z", "zz.A"]
    assert [p.name for p in model.packages] == ["aa", "zz"]


def test_duplicate_class_in_same_package_raises():
    with pytest.raises(DuplicateClassName):
        make_model("package p;\nclass A { }", "package p;\nclass A { }")


def test_same_name_in_two_packages_is_fine():
    model = make_model("package p;\nclass A { }", "package q;\nclass A { }")
    assert qnames(model) == ["p.A", "q.A"]


# ---------------------------------------------------------------------------
# Super resolution.

def test_same_package_beats_corpus_unique():
    model = make_model(
        "package p;\nclass Base { }",
        "package q;\nclass Base { }",
        "package p;\nclass Kid extends Base { }",
    )
    kid = qnames(model).index("p.Kid")
    parent = qnames(model).index("p.Base")
    assert model.inheritance_edges == [(kid, parent)]


def test_corpus_unique_cross_package_resolves():
    info = corpus("multipkg")
    model = info.model
    assert qnames(model) == ["base.Base", "ext.Child"]
    assert model.inheritance_edges == [(1, 0)]
    assert model.unresolved_supers == []


def test_ambiguous_name_is_unresolved():
    model = make_model(
        "package p;\nclass Base { }",
        "package q;\nclass Base { }",
        "package r;\nclass Kid extends Base { }",
    )
    kid = qnames(model).index("r.Kid")
    assert model.inheritance_edges == []
    assert model.unresolved_supers == [(kid, "Base")]


def test_two_same_package_candidates_leave_the_name_unresolved():
    # ``Inner`` names both ``p.Inner`` and the nested ``p.Outer.Inner``.
    # Java would take the top-level ``p.Inner``; the model calls it ambiguous.
    model = make_model(
        "package p;\nclass Outer { static class Inner { } }",
        "package p;\nclass Inner { }",
        "package p;\nclass User extends Inner { }",
    )
    user = qnames(model).index("p.User")
    assert model.inheritance_edges == []
    assert model.unresolved_supers == [(user, "Inner")]


def test_unknown_name_is_unresolved():
    model = make_model("class Kid extends Elsewhere { }")
    assert model.unresolved_supers == [(0, "Elsewhere")]


def test_class_does_not_resolve_to_itself():
    model = make_model("package p;\nclass Node extends Node { }")
    assert model.inheritance_edges == []
    assert model.unresolved_supers == [(0, "Node")]


def test_nested_class_resolves_by_simple_and_flattened_name():
    model = make_model(
        "class Outer { static class Inner { } }",
        "class A extends Inner { }",
        "class B extends Outer.Inner { }",
    )
    inner = qnames(model).index(".Outer.Inner")
    a = qnames(model).index(".A")
    b = qnames(model).index(".B")
    assert sorted(model.inheritance_edges) == sorted([(a, inner), (b, inner)])


def test_two_class_cycle_raises_with_participants():
    with pytest.raises(InheritanceCycle) as err:
        make_model(
            "package loop;\nclass Alpha extends Beta { }",
            "package loop;\nclass Beta extends Alpha { }",
        )
    message = str(err.value)
    assert "loop.Alpha" in message and "loop.Beta" in message


# ---------------------------------------------------------------------------
# Layers.

def test_chain_layers():
    model = make_model(
        "class A { }",
        "class B extends A { }",
        "class C extends B { }",
        "class D extends C { }",
    )
    layer = dict(zip(qnames(model), compute_layers(model)))
    assert layer == {".A": 0, ".B": 1, ".C": 2, ".D": 3}


def test_two_roots_share_a_layer():
    model = make_model(
        "class A { }",
        "class B { }",
        "class C extends A { }",
    )
    layer = dict(zip(qnames(model), compute_layers(model)))
    assert layer == {".A": 0, ".B": 0, ".C": 1}


def test_unresolved_super_leaves_class_at_its_path_depth():
    model = make_model(
        "class A extends Unknown { }",
        "class B extends A { }",
    )
    layer = dict(zip(qnames(model), compute_layers(model)))
    assert layer == {".A": 0, ".B": 1}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_layers_match_exhaustive_search(name):
    model = corpus(name).model
    assert compute_layers(model) == oracles.layers_exhaustive(
        len(model.classes), model.inheritance_edges
    )


def forest_model(parent):
    """Model of classes ``C0..Cn-1`` where ``Ck extends C{parent[k]}``."""
    sources = [
        f"class C{k} {{ }}" if p is None else f"class C{k} extends C{p} {{ }}"
        for k, p in enumerate(parent)
    ]
    return make_model(*sources)


@st.composite
def acyclic_parents(draw):
    """Parent arrays with no cycle: each class points before it in a random order."""
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(n)))
    parent = [None] * n
    for rank, k in enumerate(order):
        if rank:
            parent[k] = draw(st.none() | st.sampled_from(order[:rank]))
    return parent


@st.composite
def cyclic_parents(draw):
    """Parent arrays holding at least one cycle of two or more classes."""
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    loop = order[: draw(st.integers(2, n))]
    parent = [None] * n
    for a, b in zip(loop, loop[1:] + loop[:1]):
        parent[a] = b
    for k in order[len(loop):]:
        others = [j for j in range(n) if j != k]
        parent[k] = draw(st.none() | st.sampled_from(others))
    return parent


@settings(deadline=None)
@given(acyclic_parents())
def test_layers_of_random_forests_match_exhaustive_search(parent):
    model = forest_model(parent)
    at = {int(name[2:]): i for i, name in enumerate(qnames(model))}  # Ck -> index
    assert sorted(model.inheritance_edges) == sorted(
        (at[k], at[p]) for k, p in enumerate(parent) if p is not None
    )
    assert compute_layers(model) == oracles.layers_exhaustive(
        len(model.classes), model.inheritance_edges
    )


@settings(deadline=None)
@given(cyclic_parents())
def test_cycle_report_is_a_closed_parent_path(parent):
    with pytest.raises(InheritanceCycle) as err:
        forest_model(parent)
    path = [int(name[2:]) for name in err.value.participants]
    assert len(path) >= 3 and path[0] == path[-1]
    assert len(set(path)) == len(path) - 1
    # A closed walk along parent pointers only visits classes on the
    # loop, so no class from a tail leading into it is named.
    assert all(parent[a] == b for a, b in zip(path, path[1:]))


# ---------------------------------------------------------------------------
# Method classification.

def method_of(source, which=0):
    (cls,) = parse_unit(tokenize(f"class K {{ {source} }}".encode(), "<k>"))
    return cls.methods[which], cls


@pytest.mark.parametrize(
    "decl,kind",
    [
        ("public K() { }", "constructor"),
        ("int count; public int getCount() { return count; }", "accessor"),
        ("public String getName() { return label; }", "accessor"),
        ("public boolean isOpen() { return true; }", "accessor"),
        ("public void getNothing() { }", "other"),
        ("public int getAt(int i) { return i; }", "other"),
        ("int n; public void setN(int v) { n = v; }", "mutator"),
        ("public void setFlag() { }", "other"),
        ("public void run() { }", "other"),
        # A step writes its field, so a getter that steps one is no accessor.
        ("int n; public int getNext() { return n++; }", "other"),
        ("int n; public void setBack(int v) { --n; }", "mutator"),
    ],
)
def test_classification_table(decl, kind):
    # For the field-bearing rows the method of interest is the last one.
    (cls,) = parse_unit(tokenize(f"class K {{ {decl} }}".encode(), "<k>"))
    assert classify_method(cls.methods[-1], "K") == kind


def test_getter_that_writes_is_not_an_accessor():
    (cls,) = parse_unit(
        tokenize(b"class K { int n; public int getN() { n = 1; return n; } }", "<k>")
    )
    assert classify_method(cls.methods[0], "K") == "other"


def test_setter_needs_a_field_write():
    (cls,) = parse_unit(
        tokenize(b"class K { int n; public void setN(int v) { n = v; } }", "<k>")
    )
    assert classify_method(cls.methods[0], "K") == "mutator"


def test_two_classes_kinds(two_classes):
    model = two_classes.model
    by_name = {model.classes[i].name: cm for i, cm in
               zip(range(len(model.classes)), two_classes.class_metrics)}
    assert by_name["Useraaa"].kind_histogram == {
        "constructor": 0, "accessor": 1, "mutator": 1, "other": 1
    }
    assert by_name["Ownerbbb"].kind_histogram == {
        "constructor": 0, "accessor": 1, "mutator": 1, "other": 0
    }


# ---------------------------------------------------------------------------
# Cohesion.

def test_single_method_class_is_fully_cohesive():
    (cls,) = parse_unit(tokenize(b"class K { int n; void m() { n = 1; } }", "<k>"))
    assert compute_cohesion(cls) == 1.0


def test_no_fields_means_fully_cohesive():
    (cls,) = parse_unit(tokenize(b"class K { void a() { } void b() { } }", "<k>"))
    assert compute_cohesion(cls) == 1.0


def test_useraaa_cohesion_is_one_third(two_classes):
    model = two_classes.model
    idx = [c.name for c in model.classes].index("Useraaa")
    assert two_classes.class_metrics[idx].cohesion == pytest.approx(1 / 3)


def test_disjoint_fields_give_zero():
    (cls,) = parse_unit(
        tokenize(
            b"class K { int a; int b; void ma() { a = 1; } void mb() { b = 2; } }",
            "<k>",
        )
    )
    assert compute_cohesion(cls) == 0.0


def test_constructors_do_not_count_in_cohesion():
    (cls,) = parse_unit(
        tokenize(
            b"class K { int a; public K() { a = 0; } void m() { a = 1; } }",
            "<k>",
        )
    )
    assert compute_cohesion(cls) == 1.0  # only one non-constructor method


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_cohesion_matches_pair_enumeration(name):
    model = corpus(name).model
    for cls, cm in zip(model.classes, corpus(name).class_metrics):
        non_ctor = [
            m for m in cls.methods
            if classify_method(m, cls.simple_name) != "constructor"
        ]
        want = oracles.cohesion_pairs(
            [m.reads_fields | m.writes_fields for m in non_ctor],
            bool(cls.fields),
        )
        assert cm.cohesion == pytest.approx(want)


# ---------------------------------------------------------------------------
# Call resolution (hand-enumerated for the calls fixture).

def test_calls_fixture_edges():
    info = corpus("calls")
    model = info.model
    assert qnames(model) == ["app.Audit", "app.Cache", "app.Engine"]
    audit, cache, engine = 0, 1, 2
    assert model.call_edges == [
        CallEdge((audit, 0), (engine, 2), 1),   # log -> record
        CallEdge((audit, 0), (engine, 3), 1),   # log -> getHits
        CallEdge((engine, 1), (cache, 0), 1),   # lookup -> fetch
        CallEdge((engine, 1), (engine, 2), 1),  # lookup -> record
    ]
    fan = {model.classes[i].name: (cm.fan_in, cm.fan_out)
           for i, cm in enumerate(info.class_metrics)}
    assert fan == {"Audit": (0, 2), "Cache": (1, 0), "Engine": (3, 2)}


def test_unresolved_receiver_types_produce_no_edges():
    model = make_model(
        "class K { java.util.List items; void m() { items.add(1); helper(); } }"
    )
    assert model.call_edges == []  # helper undeclared, items type unknown


def test_overloads_collapse_onto_first_ordinal():
    info = corpus("overload")
    model = info.model
    caller = qnames(model).index("press.Caller")
    printer = qnames(model).index("press.Printer")
    assert model.call_edges == [CallEdge((caller, 0), (printer, 1), 3)]
    assert method_labels(model.classes[printer]) == [
        "Printer", "print", "print#2", "print#3"
    ]


def test_inherited_method_resolves_to_declaring_class():
    model = make_model(
        "class Base { void ping() { } }",
        "class Kid extends Base { void go() { ping(); } }",
    )
    base = qnames(model).index(".Base")
    kid = qnames(model).index(".Kid")
    assert model.call_edges == [CallEdge((kid, 0), (base, 0), 1)]


def test_own_method_shadows_inherited():
    model = make_model(
        "class Base { void ping() { } }",
        "class Kid extends Base { void ping() { } void go() { ping(); } }",
    )
    kid = qnames(model).index(".Kid")
    assert model.call_edges == [CallEdge((kid, 1), (kid, 0), 1)]


def test_fan_totals_balance_on_all_fixtures():
    for name in CORPUS_NAMES:
        info = corpus(name)
        assert sum(cm.fan_in for cm in info.class_metrics) == sum(
            cm.fan_out for cm in info.class_metrics
        ) == sum(e.count for e in info.model.call_edges)


# ---------------------------------------------------------------------------
# Aggregates.

def test_calls_fixture_totals():
    info = corpus("calls")
    assert info.totals == {
        "packages": 1,
        "classes": 3,
        "methods": 7,
        "loc": 40,
        "inheritance_edges": 1,
        "call_edges": 4,
    }


def test_two_classes_totals(two_classes):
    assert two_classes.totals == {
        "packages": 1,
        "classes": 2,
        "methods": 5,
        "loc": 28,
        "inheritance_edges": 1,
        "call_edges": 0,
    }


def test_nested_fixture_classes_and_loc():
    info = corpus("nested")
    model = info.model
    assert qnames(model) == ["box.Outer", "box.Outer.Inner"]
    loc = {model.classes[i].name: cm.loc for i, cm in enumerate(info.class_metrics)}
    assert loc == {"Outer": 15, "Outer.Inner": 7}


def test_package_metrics_aggregate_member_classes():
    info = corpus("calls")
    (pm,) = info.package_metrics
    assert (pm.class_count, pm.method_count, pm.loc, pm.inheritance_edge_count) == (
        3, 7, 40, 1
    )


def test_package_edge_count_follows_the_child():
    info = corpus("multipkg")
    by_name = {info.model.packages[p].name: pm
               for p, pm in enumerate(info.package_metrics)}
    assert by_name["base"].inheritance_edge_count == 0
    assert by_name["ext"].inheritance_edge_count == 1


def test_totals_are_recomputable():
    info = corpus("calls")
    assert corpus_totals(info.model, info.class_metrics) == info.totals
    fresh = compute_metrics(info.model)
    assert fresh[0] == info.class_metrics
