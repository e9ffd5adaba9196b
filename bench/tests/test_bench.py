"""Tests of the benchmark itself: corpora, plans, the gate and BENCHMARK.json.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
for entry in (str(BENCH), str(REPO / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import corpora  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from codeforest import analyze, build_scene  # noqa: E402
from codeforest.config import parse_config  # noqa: E402
from codeforest.exporters import export_gltf, export_mel, export_obj, export_report  # noqa: E402
from gate import Gate  # noqa: E402

SMALL = {
    "jfree_replica": {"replicas": 2},
    "archipelago": {"packages": 9},
    "deep_grove": {"classes": 40},
}


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _generate(workload: str, seed: int, root: Path) -> corpora.Plan:
    return corpora.generate(workload, seed, root, repo=REPO, **SMALL[workload])


def _config(workload: str):
    return parse_config(corpora.RENDER_CONFIG[workload] or "")


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_seed_fixes_the_corpus_bytes(workload, tmp_path):
    first = _generate(workload, 7, tmp_path / "a")
    again = _generate(workload, 7, tmp_path / "b")
    other = _generate(workload, 8, tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert first == again
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_plan_matches_codeforest(workload, tmp_path):
    plan = _generate(workload, 3, tmp_path)
    info = analyze(tmp_path)
    assert info.failures == []
    assert info.files == plan.files
    for key in ("packages", "classes", "methods", "inheritance_edges"):
        assert info.totals[key] == getattr(plan, key), key
    assert len(info.model.unresolved_supers) == plan.unresolved_supers

    scene = build_scene(info, _config(workload))
    names = [node.name for node in scene.nodes]
    census = {prefix: sum(n.startswith(prefix) for n in names)
              for prefix in ("island:", "tree:", "leaf:", "channel:")}
    assert census == {"island:": plan.packages, "tree:": plan.trees,
                      "leaf:": plan.leaves, "channel:": plan.channels}
    assert sum(node.mesh is not None for node in scene.nodes) == plan.mesh_nodes


@pytest.fixture
def outputs(tmp_path):
    workload = "archipelago"
    plan = _generate(workload, 5, tmp_path / "corpus")
    info = analyze(tmp_path / "corpus")
    scene = build_scene(info, _config(workload))
    out = tmp_path / "out"
    out.mkdir()
    export_report(info, out / "report.json")
    export_gltf(scene, out / "scene.gltf")
    export_obj(scene, out / "scene.obj")
    export_mel(scene, out / "scene.mel")
    return plan, out


def _paths(out: Path) -> dict[str, Path]:
    return {"report": out / "report.json", "gltf": out / "scene.gltf",
            "obj": out / "scene.obj", "mtl": out / "scene.mtl", "mel": out / "scene.mel"}


def test_gate_passes_intact_outputs_and_pins_them(outputs):
    plan, out = outputs
    gate = Gate(plan)
    for kind, path in _paths(out).items():
        assert gate.check(kind, path) == []
        assert gate.check(kind, path) == []
    assert set(gate.hashes) == {"report", "gltf", "obj", "mtl", "mel"}
    assert gate.sizes["gltf"] == (out / "scene.gltf").stat().st_size


def _drop_first_leaf(path: Path) -> None:
    doc = json.loads(path.read_text())
    leaf = next(n for n in doc["nodes"] if n["name"].startswith("leaf:"))
    leaf["name"] = "petal:" + leaf["name"]
    path.write_text(json.dumps(doc))


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _drop_obj_group(path: Path) -> None:
    text = path.read_text()
    path.write_text(text.replace("\no ", "\n# ", 1))


def _drop_mel_rename(path: Path) -> None:
    text = path.read_text()
    path.write_text(text.replace("\nrename ", "\n// ", 1))


def _drop_first_material(path: Path) -> None:
    text = path.read_text()
    path.write_text(text.replace("newmtl ", "# ", 1))


def _miscount_report(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["totals"]["classes"] += 1
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("kind, corrupt", [
    ("gltf", _drop_first_leaf),
    ("gltf", _truncate),
    ("obj", _drop_obj_group),
    ("mtl", _drop_first_material),
    ("mtl", _truncate),
    ("mel", _drop_mel_rename),
    ("report", _miscount_report),
    ("report", _truncate),
])
def test_gate_flags_a_corrupted_output(outputs, kind, corrupt):
    plan, out = outputs
    path = _paths(out)[kind]
    corrupt(path)
    assert Gate(plan).check(kind, path) != []


def test_gate_flags_bytes_that_change_between_samples(outputs):
    plan, out = outputs
    path = _paths(out)["mel"]
    gate = Gate(plan)
    assert gate.check("mel", path) == []
    path.write_text(path.read_text() + "// trailing\n")
    assert gate.check("mel", path) != []


def test_gate_flags_a_missing_output(outputs, tmp_path):
    plan, _ = outputs
    assert Gate(plan).check("gltf", tmp_path / "absent.gltf") != []


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpora.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _traced_pass(tmp_path) -> tracing.Pass:
    _generate("archipelago", 5, tmp_path / "corpus")
    (tmp_path / "out").mkdir()
    tracer = tracing.Tracer()
    tracer.run_pass(tmp_path / "corpus", _config("archipelago"), tmp_path / "out")
    return tracer.passes[0]


def test_traced_pass_records_every_layer(tmp_path):
    assert run.missing_layers(_traced_pass(tmp_path)) == []


def test_a_call_that_bypasses_its_wrapper_is_reported(tmp_path, monkeypatch):
    # As if build_layout had inlined place_islands: no span is recorded.
    monkeypatch.setattr(tracing, "WRAPPED", tuple(
        w for w in tracing.WRAPPED if w[2] != "layout.place_islands"))
    assert run.missing_layers(_traced_pass(tmp_path)) == ["layout.place_islands"]


def test_a_wrapped_attribute_that_is_gone_raises(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("codeforest.layout", "no_such_layer", "layout.no_such_layer", None),))
    with pytest.raises(AttributeError):
        with tracing.Tracer().installed():
            pass


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "archipelago", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_work").exists()
