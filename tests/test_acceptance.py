"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest -s`` to see them alongside the usual dots). The
checks lean on the independent oracles in oracles.py and the planned
expectations from synth.py rather than on the library's own numbers.
"""

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import pytest

from codeforest.cli import main
from codeforest.exporters.gltf import build_gltf
from codeforest.config import Config
from codeforest.layout import build_layout
from codeforest.model import classify_method
from codeforest.pipeline import analyze, build_scene

import oracles
import synth
from conftest import CORPUS_NAMES, FIXTURES, corpus, scene

S_MIN = Config().s_min
ANNOTATION_CLASSES = {
    "AbstractXYAnnotation",
    "CategoryAnnotation",
    "CategoryLineAnnotation",
    "CategoryPointerAnnotation",
    "CategoryTextAnnotation",
    "TextAnnotation",
    "XYAnnotation",
    "XYBoxAnnotation",
    "XYDrawableAnnotation",
    "XYImageAnnotation",
    "XYLineAnnotation",
    "XYPointerAnnotation",
    "XYPolygonAnnotation",
    "XYShapeAnnotation",
    "XYTextAnnotation",
}


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL: {label}")
        raise
    print(f"PASS: {label}")


@pytest.fixture(scope="module")
def synth_runs(tmp_path_factory):
    """100 generated corpora (<= 20 classes), analyzed and laid out once."""
    base = tmp_path_factory.mktemp("synth")
    runs = []
    for seed in range(100):
        root = base / f"s{seed}"
        root.mkdir()
        expect = synth.generate(seed, root)
        info = analyze(root)
        assert not info.failures, (seed, info.failures)
        runs.append((seed, expect, info, build_layout(info.model, Config())))
    return runs


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """40 generated corpora capped at 5 classes, for the exact-match checks."""
    base = tmp_path_factory.mktemp("small")
    runs = []
    for seed in range(40):
        root = base / f"s{seed}"
        root.mkdir()
        expect = synth.generate(seed, root, max_classes=5)
        info = analyze(root)
        assert not info.failures, (seed, info.failures)
        runs.append((seed, expect, info))
    return runs


def test_criterion_1_two_class_sample():
    with criterion("criterion 1: 2-class sample gives 2 classes, 5 methods "
                   "(3 + 2), 1 inheritance edge in under 1s"):
        start = perf_counter()
        info = analyze(FIXTURES / "two_classes")
        elapsed = perf_counter() - start
        assert info.totals["classes"] == 2
        assert info.totals["methods"] == 5
        assert info.totals["inheritance_edges"] == 1
        counts = {cls.name: len(cls.methods) for cls in info.model.classes}
        assert counts == {"Useraaa": 3, "Ownerbbb": 2}
        (edge,) = info.model.inheritance_edges
        child, parent = edge
        assert info.model.classes[child].name == "Ownerbbb"
        assert info.model.classes[parent].name == "Useraaa"
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_annotations_package():
    with criterion("criterion 2: annotations snapshot gives 15 classes, "
                   "122 methods, 12 edges, oracle-exact loc, in under 5s"):
        start = perf_counter()
        root = FIXTURES / "jfreechart_annotations"
        info = analyze(root)
        elapsed = perf_counter() - start
        assert info.totals["classes"] == 15
        assert info.totals["methods"] == 122
        assert info.totals["inheritance_edges"] == 12
        names = {cls.name for cls in info.model.classes}
        assert names == ANNOTATION_CLASSES
        oracle_loc = sum(
            sum(oracles.file_class_loc(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("*.java"))
        )
        assert info.totals["loc"] == oracle_loc
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_3_scene_censuses_match_the_model(synth_runs):
    with criterion("criterion 3: 100 generated corpora map methods to "
                   "leaves, classes to trees, edges to channels, with "
                   "balanced coupling sums"):
        violations = []
        for seed, expect, info, layout in synth_runs:
            built = build_scene(info)
            leaves = sum(n.name.startswith("leaf:") for n in built.nodes)
            trees = sum(n.name.startswith("tree:") for n in built.nodes)
            channels = sum(n.name.startswith("channel:") for n in built.nodes)
            if leaves != expect.total_methods:
                violations.append((seed, "leaves", leaves, expect.total_methods))
            if trees != len(expect.classes):
                violations.append((seed, "trees", trees, len(expect.classes)))
            if channels != len(expect.edges):
                violations.append((seed, "channels", channels, len(expect.edges)))
            fan_in = sum(cm.fan_in for cm in info.class_metrics)
            fan_out = sum(cm.fan_out for cm in info.class_metrics)
            if fan_in != fan_out:
                violations.append((seed, "fan balance", fan_in, fan_out))
        assert violations == []


def test_criterion_4_layout_invariants(synth_runs):
    with criterion("criterion 4: over the same corpora, channels never "
                   "rise, trees stay inside their island, trunks keep "
                   "the minimum separation"):
        violations = []
        for seed, expect, info, layout in synth_runs:
            if layout.channels:
                rise = oracles.worst_channel_rise(layout)
                if rise > 1e-9:
                    violations.append((seed, "channel rise", rise))
            gaps = oracles.tree_island_gaps(layout, info.model.package_of)
            if gaps and min(gaps) <= 0.0:
                violations.append((seed, "tree outside island", min(gaps)))
            by_island = defaultdict(list)
            for tree in layout.trees:
                pkg = info.model.package_of[tree.class_index]
                by_island[pkg].append(tree.position)
            for pkg, points in by_island.items():
                if len(points) < 2:
                    continue
                nearest = oracles.min_pair_distance(points)
                if nearest < S_MIN - 1e-9:
                    violations.append((seed, "separation", pkg, nearest))
        assert violations == []


def test_criterion_5_gltf_documents_validate():
    with criterion("criterion 5: exported glTF passes the independent "
                   "structural check on every fixture"):
        for name in CORPUS_NAMES:
            problems = oracles.check_gltf(json.loads(build_gltf(scene(name))))
            assert problems == [], (name, problems)


def test_criterion_6_renders_are_reproducible(tmp_path):
    with criterion("criterion 6: renders are byte-identical across runs, "
                   "for every fixture and format"):
        for name in CORPUS_NAMES:
            root = str(FIXTURES / name)
            outputs = []
            for run in ("a", "b"):
                run_dir = tmp_path / name / run
                run_dir.mkdir(parents=True)
                files = []
                for fmt in ("gltf", "obj", "mel"):
                    out = run_dir / f"forest.{fmt}"
                    assert main(["render", root, "-o", str(out),
                                 "--format", fmt]) == 0
                    files.append(out.read_bytes())
                files.append((run_dir / "forest.mtl").read_bytes())
                outputs.append(files)
            assert outputs[0] == outputs[1], name


def _rescan_call_sites(root) -> list[tuple]:
    """Character-level re-scan of every file, independent of the lexer."""
    sites = []
    for path in sorted(Path(root).rglob("*.java")):
        sites.extend(oracles.file_call_sites(path.read_text(encoding="utf-8")))
    return sorted(sites)


def _parsed_call_sites(info) -> list[tuple]:
    sites = []
    for cls in info.model.classes:
        for method in cls.methods:
            for s in method.call_sites:
                sites.append((s.callee_name, s.receiver_kind, s.receiver_name))
    return sorted(sites)


def test_criterion_7_small_corpora_match_brute_force(small_runs):
    with criterion("criterion 7: on corpora of up to 5 classes, depths, "
                   "cohesion, call sites and call edges equal the "
                   "brute-force oracles exactly"):
        fixture_infos = [
            (name, None, corpus(name))
            for name in ("two_classes", "calls", "overload", "nested", "multipkg")
        ]
        for seed, expect, info in list(small_runs) + fixture_infos:
            assert _parsed_call_sites(info) == _rescan_call_sites(info.root), (
                seed, "token re-scan")
            model = info.model
            n = len(model.classes)

            exhaustive = oracles.layers_exhaustive(n, model.inheritance_edges)
            depths = [cm.depth for cm in info.class_metrics]
            assert depths == exhaustive, (seed, "depths")
            if expect is not None:
                planned = [expect.layers[model.qualified_name(i)] for i in range(n)]
                assert depths == planned, (seed, "planned depths")

            for i, cls in enumerate(model.classes):
                non_ctor = [
                    m.reads_fields | m.writes_fields
                    for m in cls.methods
                    if classify_method(m, cls.simple_name) != "constructor"
                ]
                want = oracles.cohesion_pairs(non_ctor, bool(cls.fields))
                assert info.class_metrics[i].cohesion == want, (seed, cls.name)

            if expect is not None:
                got = {}
                for edge in model.call_edges:
                    ci, mi = edge.caller
                    ki, ni = edge.callee
                    key = (
                        model.qualified_name(ci),
                        model.classes[ci].methods[mi].name,
                        model.qualified_name(ki),
                        model.classes[ki].methods[ni].name,
                    )
                    got[key] = got.get(key, 0) + edge.count
                assert got == expect.call_edges, (seed, "call edges")
