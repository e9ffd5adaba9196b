"""Tests for the JSON metrics report."""

import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codeforest.exporters.report import export_report, report_text
from codeforest.lexer import Span
from codeforest.model import (
    METHOD_KINDS,
    CallEdge,
    ClassMetrics,
    CodeModel,
    PackageMetrics,
    PackageRecord,
    corpus_totals,
)
from codeforest.parser import ClassDecl, MethodDecl
from codeforest.pipeline import CorpusInfo, analyze

import oracles
import synth
from conftest import CORPUS_NAMES, corpus, texts


def report(name: str) -> dict:
    return json.loads(report_text(corpus(name)))


def oracle_text(info) -> str:
    return oracles.json_text(oracles.report_doc(info), float_text="%.4f".__mod__) + "\n"


def test_top_level_key_order():
    assert list(report("calls")) == [
        "corpus",
        "totals",
        "packages",
        "classes",
        "inheritance_edges",
        "call_edges",
        "unresolved_supers",
    ]


def test_corpus_block():
    doc = report("calls")
    assert doc["corpus"]["root"].endswith("fixtures/calls")
    assert doc["corpus"]["files"] == 3


def test_totals():
    assert report("calls")["totals"] == {
        "packages": 1,
        "classes": 3,
        "methods": 7,
        "loc": 40,
        "inheritance_edges": 1,
        "call_edges": 4,
    }


def test_class_entry_shape():
    classes = report("calls")["classes"]
    assert [c["name"] for c in classes] == ["Audit", "Cache", "Engine"]
    engine = classes[2]
    assert engine == {
        "package": "app",
        "name": "Engine",
        "method_count": 4,
        "loc": 22,
        "depth": 0,
        "fan_in": 3,
        "fan_out": 2,
        "cohesion": engine["cohesion"],
        "kind_histogram": {"constructor": 1, "accessor": 1, "mutator": 0, "other": 2},
    }
    assert corpus("calls").class_metrics[2].cohesion == 1 / 3
    assert engine["cohesion"] == 0.3333


def test_package_entries_sorted():
    packages = report("multipkg")["packages"]
    assert [p["name"] for p in packages] == ["base", "ext"]
    assert packages[0]["classes"] == 1
    # the edge is counted with the subclass's package
    assert packages[0]["inheritance_edges"] == 0
    assert packages[1]["inheritance_edges"] == 1


def test_inheritance_edges_qualified():
    assert report("calls")["inheritance_edges"] == [
        {"child": "app.Audit", "parent": "app.Engine"}
    ]


def test_call_edges_use_method_labels():
    assert report("calls")["call_edges"] == [
        {"caller": "app.Audit.log", "callee": "app.Engine.record", "count": 1},
        {"caller": "app.Audit.log", "callee": "app.Engine.getHits", "count": 1},
        {"caller": "app.Engine.lookup", "callee": "app.Cache.fetch", "count": 1},
        {"caller": "app.Engine.lookup", "callee": "app.Engine.record", "count": 1},
    ]


def test_overload_labels_in_call_edges():
    edges = report("overload")["call_edges"]
    assert edges == [
        {"caller": "press.Caller.run", "callee": "press.Printer.print", "count": 3}
    ]


def test_unresolved_supers_reported():
    doc = report("jfreechart_annotations")
    assert doc["unresolved_supers"] == [
        {
            "class": "org.jfree.chart.annotations.TextAnnotation",
            "written": "Serializable",
        }
    ]


def test_cohesion_rendered_with_four_decimals():
    text = report_text(corpus("calls"))
    assert '"cohesion": 0.3333' in text
    assert '"cohesion": 1.0000' in text


def test_text_is_valid_json_mirroring_the_dict():
    text = report_text(corpus("calls"))
    assert text.endswith("}\n")
    expected = oracles.report_doc(corpus("calls"))
    for cls in expected["classes"]:
        cls["cohesion"] = float("%.4f" % cls["cohesion"])
    assert json.loads(text) == expected


def test_empty_corpus_report(tmp_path):
    info = analyze(tmp_path)
    doc = json.loads(report_text(info))
    assert doc["corpus"]["files"] == 0
    assert doc["totals"] == {
        "packages": 0,
        "classes": 0,
        "methods": 0,
        "loc": 0,
        "inheritance_edges": 0,
        "call_edges": 0,
    }
    for key in ("packages", "classes", "inheritance_edges", "call_edges",
                "unresolved_supers"):
        assert doc[key] == []
    assert doc == oracles.report_doc(info)


def test_export_round_trip(tmp_path):
    path = tmp_path / "report.json"
    export_report(corpus("two_classes"), path)
    assert path.read_text(encoding="utf-8") == report_text(corpus("two_classes"))


# ---------------------------------------------------------------------------
# The text against the document written through the generic JSON writer.

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_text_equals_oracle_on_fixtures(name):
    assert report_text(corpus(name)) == oracle_text(corpus(name))


def test_text_equals_oracle_on_synth_corpora(tmp_path):
    for seed in range(10):
        root = tmp_path / f"s{seed}"
        root.mkdir()
        synth.generate(seed, root)
        info = analyze(root)
        assert report_text(info) == oracle_text(info), seed


def test_text_equals_oracle_on_empty_and_non_utf8_roots(tmp_path):
    raw = os.fsencode(tmp_path) + b"/r\xe9"
    os.mkdir(raw)
    with open(raw + b"/A.java", "wb") as source:
        source.write(b"package p;\nclass A { int a; int get() { return a; } }\n")
    for root in (tmp_path / "empty", os.fsdecode(raw)):
        os.makedirs(root, exist_ok=True)
        info = analyze(root)
        assert report_text(info) == oracle_text(info)
    assert "\\udce9" in report_text(info)


_COHESION = st.sampled_from([0, 1, 0.0, 1.0, 1 / 3]) | st.floats(0.0, 1.0)
_COUNT = st.integers(0, 10**6)


@st.composite
def random_infos(draw) -> CorpusInfo:
    """A model and metrics drawn directly rather than parsed: names and
    a root of awkward text, any list possibly empty, overloaded method
    names, cohesion 0, 1, 1/3 or any fraction."""
    packages, classes, package_of = [], [], []
    for p in range(draw(st.integers(0, 3))):
        name = draw(texts(0, 5))
        packages.append(PackageRecord(name, []))
        for _ in range(draw(st.integers(0, 3))):
            packages[p].class_indices.append(len(classes))
            package_of.append(p)
            methods = [MethodDecl(draw(st.sampled_from(["m", "n"]) | texts(0, 4)),
                                  False, "", set(), set(), [])
                       for _ in range(draw(st.integers(0, 4)))]
            classes.append(ClassDecl(draw(texts(1, 6)), name, None, [], methods,
                                     Span("<memory>", 1, 1)))
    model = CodeModel(packages, classes, package_of)
    if classes:
        class_ids = st.integers(0, len(classes) - 1)
        model.inheritance_edges = draw(st.lists(st.tuples(class_ids, class_ids), max_size=4))
        model.unresolved_supers = draw(st.lists(st.tuples(class_ids, texts(0, 5)), max_size=3))
    method_ids = [(c, m) for c, cls in enumerate(classes) for m in range(len(cls.methods))]
    if method_ids:
        ids = st.sampled_from(method_ids)
        model.call_edges = draw(st.lists(
            st.builds(CallEdge, ids, ids, st.integers(1, 10**6)), max_size=5))
    class_metrics = [
        ClassMetrics(draw(_COUNT), draw(_COUNT), draw(_COUNT), draw(_COUNT), draw(_COUNT),
                     draw(_COHESION),
                     draw(st.dictionaries(st.sampled_from(METHOD_KINDS), _COUNT)))
        for _ in classes
    ]
    package_metrics = [
        PackageMetrics(draw(_COUNT), draw(_COUNT), draw(_COUNT), draw(_COUNT))
        for _ in packages
    ]
    return CorpusInfo(draw(texts()), model, class_metrics, package_metrics,
                      corpus_totals(model, class_metrics), files=draw(_COUNT))


@settings(max_examples=200, deadline=None)
@given(random_infos())
@example(CorpusInfo("", CodeModel([], [], []), [], [], corpus_totals(CodeModel([], [], []), [])))
def test_text_equals_oracle_on_random_corpora(info):
    assert report_text(info) == oracle_text(info)
