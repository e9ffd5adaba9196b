"""Tests for the codeforest command line interface."""

import io
import json
import os
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from codeforest import pipeline
from codeforest.cli import main
from codeforest.config import DEFAULTS, load_config
from codeforest.exporters.report import report_text
from codeforest.layout import build_layout
from codeforest.model import compute_layers

from conftest import FIXTURES, corpus, deadline
from oracles import check_gltf

TWO_CLASSES = str(FIXTURES / "two_classes")


def roomy_corpus(tmp_path):
    """Four same-package classes: enough space that the seed matters."""
    root = tmp_path / "src"
    root.mkdir()
    for name in ("Ash", "Beech", "Cedar", "Datura"):
        (root / f"{name}.java").write_text(
            "package grove;\n"
            f"public class {name} {{\n"
            "    private int size;\n"
            "    public int getSize() { return size; }\n"
            "}\n",
            encoding="utf-8",
        )
    return root


def test_analyze_prints_summary(capsys):
    assert main(["analyze", TWO_CLASSES]) == 0
    out = capsys.readouterr()
    assert out.out == "classes=2 methods=5 loc=28 inheritance=1\n"
    assert out.err == ""


def test_analyze_report_flag(tmp_path, capsys):
    report = tmp_path / "metrics.json"
    assert main(["analyze", TWO_CLASSES, "--report", str(report)]) == 0
    capsys.readouterr()
    assert report.read_text(encoding="utf-8") == report_text(corpus("two_classes"))


def test_missing_root_exits_two(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_inheritance_cycle_exits_one(capsys):
    assert main(["analyze", str(FIXTURES / "cycle")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "loop.Alpha" in err and "loop.Beta" in err


def test_tight_spacing_widens_the_island_to_hold_its_trees(tmp_path, capsys):
    # Fifteen trees at s_min = 10 on an island whose floor is 0.5 per
    # sqrt(class): the terraces grow to hold them.
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("s_min = 10\nbase_radius_per_class = 0.5\n", encoding="utf-8")
    out = tmp_path / "forest.gltf"
    argv = ["render", str(FIXTURES / "jfreechart_annotations"), "-o", str(out),
            "--format", "gltf", "--config", str(cfg)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert check_gltf(json.loads(out.read_text(encoding="utf-8"))) == []
    model = corpus("jfreechart_annotations").model
    params = load_config(cfg)
    layout = build_layout(model, params)
    assert oracles.terrace_faults(model, compute_layers(model), layout, params) == []


def test_render_gltf(tmp_path, capsys):
    out = tmp_path / "forest.gltf"
    assert main(["render", TWO_CLASSES, "-o", str(out), "--format", "gltf"]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["asset"]["generator"] == "codeforest"
    assert check_gltf(doc) == []


def test_render_obj_writes_mtl_too(tmp_path, capsys):
    out = tmp_path / "forest.obj"
    assert main(["render", TWO_CLASSES, "-o", str(out), "--format", "obj"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"wrote {out}", f"wrote {tmp_path / 'forest.mtl'}"]
    assert (tmp_path / "forest.mtl").exists()
    assert out.read_text(encoding="utf-8").splitlines()[0] == "mtllib forest.mtl"


def test_render_obj_named_mtl_exits_two_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x.mtl"
    assert main(["render", TWO_CLASSES, "-o", str(out), "--format", "obj"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}:")
    assert list(tmp_path.iterdir()) == []


def test_render_mel(tmp_path, capsys):
    out = tmp_path / "forest.mel"
    assert main(["render", TWO_CLASSES, "-o", str(out), "--format", "mel"]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8").endswith("select -cl;\n")


def test_format_flag_is_required(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["render", TWO_CLASSES, "-o", str(tmp_path / "x.gltf")])
    assert exc.value.code == 2


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["render", TWO_CLASSES, "-o", str(tmp_path / "x.stl"), "--format", "stl"])
    assert exc.value.code == 2


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "render.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    rc = main(["render", TWO_CLASSES, "-o", str(tmp_path / "x.gltf"),
               "--format", "gltf", "--config", str(cfg)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_small_segment_count_exits_two(tmp_path, capsys):
    cfg = tmp_path / "render.cfg"
    cfg.write_text("segments = 4\n", encoding="utf-8")
    rc = main(["render", TWO_CLASSES, "-o", str(tmp_path / "x.gltf"),
               "--format", "gltf", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_huge_segment_count_exits_two_before_building_a_scene(tmp_path, capsys, monkeypatch):
    def no_scene(info, config=None):
        raise AssertionError("build_scene was called")

    monkeypatch.setattr(pipeline, "build_scene", no_scene)
    cfg = tmp_path / "render.cfg"
    cfg.write_text("segments = 100000000\n", encoding="utf-8")
    with deadline(5):
        rc = main(["render", TWO_CLASSES, "-o", str(tmp_path / "x.obj"),
                   "--format", "obj", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: config key segments must be at most 256, got 100000000\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_malformed_config_line_exits_two(tmp_path, capsys):
    cfg = tmp_path / "render.cfg"
    cfg.write_text("seed = 1\njust words\n", encoding="utf-8")
    rc = main(["render", TWO_CLASSES, "-o", str(tmp_path / "x.gltf"),
               "--format", "gltf", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value'\n"


def test_non_utf8_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "render.cfg"
    data = b"seed = 1\n# caf\xe9\n"
    cfg.write_bytes(data)
    out = tmp_path / "x.gltf"
    rc = main(["render", TWO_CLASSES, "-o", str(out), "--format", "gltf",
               "--config", str(cfg)])
    assert rc == 2
    offset = data.index(b"\xe9")
    assert capsys.readouterr().err == f"error: {cfg}: invalid UTF-8 at byte offset {offset}\n"
    assert not out.exists()


@pytest.mark.parametrize("line", ["s_min = nan", "h1 = inf", "tier_drop = inf"])
def test_non_finite_config_value_exits_two(tmp_path, capsys, line):
    # nan once crashed the hex-slot count; inf wrote NaN/Infinity into the glTF.
    cfg = tmp_path / "render.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "x.gltf"
    rc = main(["render", TWO_CLASSES, "-o", str(out), "--format", "gltf",
               "--config", str(cfg)])
    assert rc == 2
    key, value = line.split(" = ")
    assert capsys.readouterr().err == (
        f"error: {cfg}:1: {key} takes a finite number, got {value!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "fixture, line, what",
    [
        # An infinite island radius once kept the spiral searching forever.
        ("multipkg", "s_min = 1e308", "island 'base'"),
        # A finite radius whose squared clearance overflows did the same.
        ("multipkg", "base_radius_per_class = 1e308", "island 'ext'"),
        # Past 2**53 points from the origin, consecutive spiral points
        # are the same float, and the search never ends.
        ("multipkg", "base_radius_per_class = 1e9", "island 'ext'"),
        # An infinite trunk once wrote Infinity and NaN into the glTF.
        ("calls", "h1 = 1e308", "node 'trunk:app.Audit'"),
        # Finite as a float64, infinite once cast to float32: the cast
        # must neither warn nor reach the file.
        ("calls", "h1 = 1e39", "node 'trunk:app.Audit'"),
        # The outer terraces' rows run past the float range, where a
        # row's tree count would divide by zero.
        ("jfreechart_annotations",
         "base_radius_per_class = 4.6e307\ns_min = 8e307",
         "island 'org.jfree.chart.annotations'"),
    ],
)
def test_overflowing_config_exits_two(tmp_path, capsys, fixture, line, what):
    cfg = tmp_path / "render.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "x.gltf"
    with deadline(1.0), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["render", str(FIXTURES / fixture), "-o", str(out),
                   "--format", "gltf", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {what} overflows; the config's sizes are too large\n"
    )
    assert not out.exists()


def test_islands_that_ring_the_origin_render_in_time(tmp_path, capsys):
    # Eight packages of three classes at base 1000: the first islands
    # ring the origin, and each later search once walked millions of
    # spiral points that the ring blocks.
    root = tmp_path / "ring"
    for p in range(8):
        (root / f"p{p}").mkdir(parents=True)
        for c in range(3):
            (root / f"p{p}" / f"C{c}.java").write_text(
                f"package p{p};\nclass C{c} {{ }}\n", encoding="utf-8")
    cfg = tmp_path / "render.cfg"
    cfg.write_text("base_radius_per_class = 1000\n", encoding="utf-8")
    out = tmp_path / "x.gltf"
    with deadline(10.0):
        rc = main(["render", str(root), "-o", str(out), "--format", "gltf",
                   "--config", str(cfg)])
    assert rc == 0, capsys.readouterr().err
    assert check_gltf(json.loads(out.read_text(encoding="utf-8"))) == []


_FLOAT_KEYS = sorted(key for key, default in DEFAULTS.items() if type(default) is float)
# One package each, so no island search, whose walk at some large
# finite radii is still far too long for a property (ROADMAP item 8).
_SMALL_FIXTURES = ["two_classes", "cycle", "calls", "nested", "overload"]


@st.composite
def valid_renders(draw) -> tuple[str, str, str]:
    """(config text, fixture, format): ``segments`` anywhere in its valid
    range, any seed, and up to three float keys anywhere in the positive
    floats. A render's cost grows with the square of ``segments``, so
    above 64 the fixture is the two-class one."""
    segments = draw(st.integers(8, 256))
    lines = [f"segments = {segments}", f"seed = {draw(st.integers(0, 2**31))}"]
    for key in draw(st.lists(st.sampled_from(_FLOAT_KEYS), max_size=3, unique=True)):
        lines.append(f"{key} = {draw(st.floats(5e-324, sys.float_info.max))!r}")
    fixture = draw(st.sampled_from(_SMALL_FIXTURES)) if segments <= 64 else "two_classes"
    return "\n".join(lines) + "\n", fixture, draw(st.sampled_from(["gltf", "obj", "mel"]))


@settings(max_examples=12, deadline=None)
@given(valid_renders())
@example(("segments = 256\n", "two_classes", "obj"))
@example(("segments = 256\nh1 = 1e+39\n", "two_classes", "gltf"))
@example(("segments = 8\ns_min = 5e-324\n", "calls", "mel"))
@example(("segments = 200\n", "cycle", "gltf"))
def test_a_valid_config_exits_with_a_typed_error_or_none(tmp_path_factory, render):
    text, fixture, fmt = render
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "render.cfg"
    cfg.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with deadline(20.0), redirect_stdout(out), redirect_stderr(err):
        rc = main(["render", str(FIXTURES / fixture), "-o", str(tmp / f"x.{fmt}"),
                   "--format", fmt, "--config", str(cfg)])
    if rc == 0:
        assert (tmp / f"x.{fmt}").is_file()
    else:
        assert rc in (1, 2)
        assert err.getvalue().splitlines()[-1].startswith("error: ")
        assert out.getvalue() == ""


@pytest.mark.parametrize("s_min", ["1e-320", "5e-324"])
def test_tiny_s_min_still_renders(tmp_path, capsys, s_min):
    # Terrace rows lie s_min apart, so at a subnormal s_min a channel's
    # polyline holds points that coincide with their neighbours; the
    # ribbon drops them instead of failing the render.
    cfg = tmp_path / "render.cfg"
    cfg.write_text(f"s_min = {s_min}\n", encoding="utf-8")
    out = tmp_path / "x.gltf"
    rc = main(["render", TWO_CLASSES, "-o", str(out), "--format", "gltf",
               "--config", str(cfg)])
    assert rc == 0, capsys.readouterr().err
    assert check_gltf(json.loads(out.read_text(encoding="utf-8"))) == []


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(root):
        raise ValueError("internal bug")

    monkeypatch.setattr(pipeline, "analyze", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["analyze", TWO_CLASSES])


def test_unwritable_output_exits_two(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.gltf"
    rc = main(["render", TWO_CLASSES, "-o", str(out), "--format", "gltf"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_negative_seed_exits_two(tmp_path, capsys):
    rc = main(["render", TWO_CLASSES, "-o", str(tmp_path / "x.gltf"),
               "--format", "gltf", "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: config key seed must be non-negative, got -1\n"


def test_seed_flag_moves_trees(tmp_path, capsys):
    root = roomy_corpus(tmp_path)

    def render(seed: int, tag: str) -> bytes:
        out_dir = tmp_path / tag
        out_dir.mkdir()
        out = out_dir / "forest.obj"
        assert main(["render", str(root), "-o", str(out),
                     "--format", "obj", "--seed", str(seed)]) == 0
        return out.read_bytes()

    first = render(0, "a")
    again = render(0, "b")
    moved = render(7, "c")
    capsys.readouterr()
    assert first == again
    assert first != moved


def test_empty_corpus_warns_but_succeeds(tmp_path, capsys):
    root = tmp_path / "empty"
    root.mkdir()
    assert main(["analyze", str(root)]) == 0
    out = capsys.readouterr()
    assert out.out == "classes=0 methods=0 loc=0 inheritance=0\n"
    assert out.err.startswith("warning:")


def test_byte_order_marks_keep_each_file_in_its_package(tmp_path, capsys):
    # Read as punctuation, a leading BOM hid both package lines, and the
    # two classes clashed in the default package.
    for package in ("a", "b"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "Util.java").write_bytes(
            f"\ufeffpackage {package};\nclass Util {{ void run() {{ }} }}\n".encode())
    assert main(["analyze", str(tmp_path)]) == 0
    out = capsys.readouterr()
    assert out.out == "classes=2 methods=2 loc=2 inheritance=0\n"
    assert out.err == ""


def test_parse_failure_warns_and_continues(tmp_path, capsys):
    root = tmp_path / "src"
    root.mkdir()
    (root / "Good.java").write_text(
        "package p;\npublic class Good { void go() {} }\n", encoding="utf-8"
    )
    (root / "Bad.java").write_text(
        'package p;\npublic class Bad { String s = "unterminated', encoding="utf-8"
    )
    assert main(["analyze", str(root)]) == 0
    out = capsys.readouterr()
    assert out.out == "classes=1 methods=1 loc=1 inheritance=0\n"
    assert "Bad.java" in out.err and out.err.startswith("warning:")


def test_unlistable_directory_warns_and_continues(tmp_path, monkeypatch, capsys):
    root = tmp_path / "src"
    for pkg in ("a", "b"):
        (root / pkg).mkdir(parents=True)
        (root / pkg / f"{pkg.upper()}.java").write_text(f"class {pkg.upper()} {{ }}\n")
    scandir = os.scandir

    def locked_scandir(path="."):
        if os.fspath(path) == str(root / "b"):
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", locked_scandir)
    assert main(["analyze", str(root)]) == 0
    out = capsys.readouterr()
    assert out.out == "classes=1 methods=0 loc=1 inheritance=0\n"
    assert out.err.startswith("warning: b: PermissionError: ")


@pytest.mark.parametrize("command", ["analyze", "render"])
def test_non_utf8_path_is_warned_as_its_bytes(tmp_path, command, capsys):
    root = tmp_path / "src"
    (root / "p").mkdir(parents=True)
    (root / "p" / "Good.java").write_text("package p;\npublic class Good {}\n",
                                          encoding="utf-8")
    with open(os.fsencode(root / "p") + b"/Bad\xe9.java", "wb") as bad:
        bad.write(b"class { }\n")
    argv = [command, str(root)]
    if command == "render":
        argv += ["-o", str(tmp_path / "forest.obj"), "--format", "obj"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "p/Bad\\xe9.java" in err
    assert "\\udc" not in err and "\udce9" not in err


# Few class names, so files clash (exit 1) and ``extends`` closes loops.
_NAMES = ["C0", "C1", "C2"]
# Directory and file names: plain, not UTF-8, non-ASCII, with a blank,
# and a directory named like a source file.
_DIRS = [b"a", b"b", b"\xff", "ü".encode(), b"x y", b"D.java"]
_FILES = [b"C0.java", b"\xfe.java", "Größe.java".encode(), b"a b.java", b"notes.txt"]


@st.composite
def input_trees(draw) -> list[tuple[bytes, bytes]]:
    """``(relative path, contents)`` per file: up to 6 files, 0 to 3
    directories deep, each empty or holding up to 3 classes of 0 to 3
    methods, or of 150 (about 6 KB). Line ends are LF, CR or CRLF; a file
    may start with a byte order mark, spell a keyword with a Unicode
    escape, hold a broken escape, a byte that is not UTF-8, or be cut
    short anywhere."""
    files = []
    for _ in range(draw(st.integers(0, 6))):
        path = b"/".join([*draw(st.lists(st.sampled_from(_DIRS), max_size=3)),
                          draw(st.sampled_from(_FILES))])
        lines = [draw(st.sampled_from(["", "package p;", "package q.r;"]))]
        for _ in range(draw(st.integers(0, 3))):
            parent = draw(st.sampled_from(["", *(f" extends {n}" for n in _NAMES)]))
            lines.append(f"class {draw(st.sampled_from(_NAMES))}{parent} {{")
            count = draw(st.sampled_from([0, 1, 3, 150]))
            lines += [f"  int f{m}; void m{m}() {{ f{m}++; m{(m + 1) % count}(); }}"
                      for m in range(count)]
            lines.append("}")
        text = draw(st.sampled_from(["\n", "\r", "\r\n"])).join(lines)
        text = draw(st.sampled_from(["", "\ufeff"])) + text
        twist = draw(st.sampled_from(["", "escape", "broken", "byte", "cut"]))
        if twist == "escape":
            text = text.replace("class", "\\u0063lass", 1)
        elif twist == "broken":
            text += ' String s = "\\u00zz";'
        data = text.encode("utf-8")
        at = draw(st.integers(0, len(data)))
        if twist == "byte":
            data = data[:at] + b"\xff" + data[at:]
        elif twist == "cut":
            data = data[:at]
        files.append((path, data))
    return files


@settings(max_examples=80, deadline=None)
@given(input_trees(), st.sampled_from(["gltf", "obj", "mel"]))
@example([(b"C0.java", b"class C0 extends C1 { }"), (b"a/C0.java", b"class C1 extends C0 { }")],
         "gltf")
@example([(b"C0.java", b"class C0 { }"), (b"b/C0.java", b"class C0 { }")], "obj")
def test_any_input_tree_exits_with_a_typed_error_or_none(tmp_path_factory, files, fmt):
    tmp = tmp_path_factory.mktemp("tree")
    root = os.fsencode(tmp / "src")
    os.mkdir(root)
    for path, data in files:
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "ab") as out:
            out.write(data)
    out = tmp / f"forest.{fmt}"
    for argv in (["analyze", os.fsdecode(root)],
                 ["render", os.fsdecode(root), "-o", str(out), "--format", fmt]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with deadline(10.0), redirect_stdout(stdout), redirect_stderr(stderr):
            rc = main(argv)
        if rc == 0:
            assert argv[0] == "analyze" or out.is_file()
        else:
            assert rc in (1, 2)
            assert stderr.getvalue().splitlines()[-1].startswith("error: ")
            assert "Traceback" not in stderr.getvalue()
