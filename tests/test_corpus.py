"""Corpus walking: ordering and per-file failure isolation."""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from codeforest import errors, parser
from codeforest.errors import CodeforestError, RootNotFound
from codeforest.lexer import tokenize
from codeforest.parser import parse_corpus, parse_unit
from codeforest.pipeline import analyze
from conftest import FIXTURES, deadline, write_deep_corpus


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_units_come_in_relative_path_byte_order(tmp_path):
    write(tmp_path, "b/Z.java", "class Z { }")
    write(tmp_path, "a/Y.java", "class Y { }")
    write(tmp_path, "A.java", "class A { }")
    result = parse_corpus(tmp_path)
    assert [u.path for u in result.units] == ["A.java", "a/Y.java", "b/Z.java"]


def test_non_java_files_are_ignored(tmp_path):
    write(tmp_path, "Readme.txt", "not java")
    write(tmp_path, "K.java", "class K { }")
    result = parse_corpus(tmp_path)
    assert [u.path for u in result.units] == ["K.java"]


def test_bad_file_is_reported_and_skipped(tmp_path):
    write(tmp_path, "Good.java", "class Good { }")
    write(tmp_path, "Bad.java", 'class Bad { String s = "unterminated\n}')
    result = parse_corpus(tmp_path)
    assert [u.path for u in result.units] == ["Good.java"]
    ((path, detail),) = result.failures
    assert path == "Bad.java"
    assert "UnterminatedLiteral" in detail


def test_non_utf8_file_is_a_failure_not_a_crash(tmp_path):
    write(tmp_path, "Ok.java", "class Ok { }")
    (tmp_path / "Bin.java").write_bytes(b"class \xff\xfe{}")
    result = parse_corpus(tmp_path)
    assert [u.path for u in result.units] == ["Ok.java"]
    ((path, detail),) = result.failures
    assert path == "Bin.java"
    assert "NonUtf8Input" in detail


def test_non_utf8_file_name_sorts_by_its_bytes(tmp_path):
    write(tmp_path, "N\ue000.java", "class P { }")
    try:
        with open(os.path.join(os.fsencode(tmp_path), b"N\xff.java"), "wb") as f:
            f.write(b"class Q { }")
    except OSError:
        pytest.skip("the filesystem refuses a name that is not UTF-8")
    result = parse_corpus(tmp_path)
    # As text, the escaped byte (U+DCFF) sorts before U+E000; as bytes,
    # 0xFF sorts after its UTF-8 lead byte 0xEE.
    assert [u.path for u in result.units] == ["N\ue000.java", "N\udcff.java"]
    assert result.failures == []


def test_symlinks_and_non_files(tmp_path):
    root = tmp_path / "src"
    write(tmp_path, "ext/T.java", "class T { }")
    write(root, "A.java", "class A { }")
    write(root, "Dir.java/Inner.java", "class Inner { }")
    (root / "Link.java").symlink_to(tmp_path / "ext" / "T.java")
    (root / "linked").symlink_to(tmp_path / "ext", target_is_directory=True)
    (root / "Gone.java").symlink_to(tmp_path / "missing.java")
    result = parse_corpus(root)
    # The linked file is read; the linked directory is not entered; the
    # broken link and the directory named like a source are skipped.
    assert [u.path for u in result.units] == ["A.java", "Dir.java/Inner.java", "Link.java"]
    assert result.failures == []


# A tree is built from (where, name, kind) entries, each made in the
# ``where``-th directory made so far; an entry whose name is taken is
# dropped. Links point into the tree or at ``ext`` beside the root.
_ENTRY_KINDS = ("dir", "java", "bad java", "text", "link to file", "link to dir",
                "broken link", "link loop")
_TREES = st.lists(st.tuples(st.integers(0, 7),
                            st.sampled_from(["a", "b", "A.java", "B.java", "c.txt"]),
                            st.sampled_from(_ENTRY_KINDS)), max_size=12)


def build_tree(base: Path, entries) -> Path:
    root, ext = base / "root", base / "ext"
    root.mkdir()
    ext.mkdir()
    write(ext, "E.java", "class E { }")
    dirs, files = [root], [ext / "E.java"]
    for n, (where, name, kind) in enumerate(entries):
        path = dirs[where % len(dirs)] / name
        if os.path.lexists(path):
            continue
        if kind == "dir":
            path.mkdir()
            dirs.append(path)
        elif kind == "java":
            path.write_text(f"class K{n} {{ }}")
            files.append(path)
        elif kind == "bad java":
            path.write_text('class Bad { String s = "open\n}')
        elif kind == "text":
            path.write_text("not java")
        elif kind == "link to file":
            path.symlink_to(files[where % len(files)])
        elif kind == "link to dir":
            path.symlink_to([ext, *dirs][where % (len(dirs) + 1)], target_is_directory=True)
        elif kind == "broken link":
            path.symlink_to(base / "missing.java")
        else:
            path.symlink_to(path)
    return root


@settings(max_examples=100, deadline=None)
@given(_TREES)
def test_the_walk_reads_what_os_walk_and_isfile_list(entries):
    """Linked files are read; linked directories, broken links, link loops
    and directories named like a source are not: units and failures as
    ``os.walk`` and ``os.path.isfile`` give them, in byte order."""
    with tempfile.TemporaryDirectory() as tmp:
        root = build_tree(Path(tmp), entries)
        paths, failures = oracles.java_files_by_walk(str(root))
        units = []
        for rel in paths:
            try:
                units.append((rel, parse_unit(tokenize((root / rel).read_bytes(), rel))))
            except CodeforestError as exc:
                failures.append((rel, f"{type(exc).__name__}: {exc}"))
        failures.sort(key=lambda failure: os.fsencode(failure[0]))
        with deadline(2.0):
            result = parse_corpus(root)
    assert [(u.path, u.classes) for u in result.units] == units
    assert result.failures == failures


def test_unreadable_file_is_one_failure(tmp_path, monkeypatch):
    write(tmp_path, "A.java", "class A { }")
    write(tmp_path, "Locked.java", "class Locked { }")
    write(tmp_path, "Z.java", "class Z { }")

    def locked_open(path, *args):
        if path.endswith("Locked.java"):
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args)

    monkeypatch.setattr(parser, "open", locked_open, raising=False)
    result = parse_corpus(tmp_path)
    assert [u.path for u in result.units] == ["A.java", "Z.java"]
    ((path, detail),) = result.failures
    assert path == "Locked.java"
    assert detail.startswith("PermissionError: ")


def test_unlistable_directory_is_one_failure(tmp_path, monkeypatch):
    for rel in ("a/A.java", "b/B.java", "b/c/C.java", "d/D.java"):
        write(tmp_path, rel, "class K { }")
    locked = str(tmp_path / "b")
    scandir = os.scandir

    def locked_scandir(path="."):
        if os.fspath(path) == locked:
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", locked_scandir)
    result = parse_corpus(tmp_path)
    assert [u.path for u in result.units] == ["a/A.java", "d/D.java"]
    assert result.failures == [("b", f"PermissionError: [Errno 13] Permission denied: '{locked}'")]
    assert result.warnings == []


def test_unlistable_root_is_one_failure(tmp_path, monkeypatch):
    write(tmp_path, "A.java", "class A { }")
    scandir = os.scandir

    def locked_scandir(path="."):
        if os.fspath(path) == str(tmp_path):
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", locked_scandir)
    result = parse_corpus(tmp_path)
    assert result.units == []
    ((path, detail),) = result.failures
    assert (path, detail.split(":")[0]) == (".", "PermissionError")


@pytest.mark.parametrize("root", [".", "./", "src", "src/", "src//"])
def test_paths_are_relative_to_any_spelling_of_the_root(tmp_path, monkeypatch, root):
    write(tmp_path, "src/p/K.java", "class K { }")
    monkeypatch.chdir(tmp_path)
    result = parse_corpus(root)
    expected = "p/K.java" if root.startswith("src") else "src/p/K.java"
    assert [u.path for u in result.units] == [expected]


def test_empty_corpus_warns(tmp_path):
    result = parse_corpus(tmp_path)
    assert result.units == []
    assert result.failures == []
    assert len(result.warnings) == 1


def test_missing_root_raises(tmp_path):
    with pytest.raises(RootNotFound):
        parse_corpus(tmp_path / "nope")


def test_file_with_multiple_top_level_classes(tmp_path):
    write(tmp_path, "Two.java", "class One { }\nclass Two { }")
    (unit,) = parse_corpus(tmp_path).units
    assert [c.name for c in unit.classes] == ["One", "Two"]


def test_nesting_depth_is_not_limited(tmp_path):
    depth = write_deep_corpus(tmp_path)
    result = parse_corpus(tmp_path)
    assert result.failures == []
    deep, plain = result.units
    names = [f"A{i}" for i in range(depth)]
    assert [c.name for c in deep.classes] == [".".join(names[:k]) for k in range(1, depth + 1)]
    assert [c.name for c in plain.classes] == ["Plain"]


def test_text_block_file_parses_without_failures(tmp_path):
    write(
        tmp_path,
        "p/Doc.java",
        "package p;\n"
        "class Doc {\n"
        "    String html() {\n"
        '        return """\n'
        '            <p class="x">{ not a block; }</p>\n'
        '            void fake() { "\n'
        '            """;\n'
        "    }\n"
        "    int size() { return 1; }\n"
        "}\n",
    )
    result = parse_corpus(tmp_path)
    assert result.failures == []
    (unit,) = result.units
    (cls,) = unit.classes
    assert [m.name for m in cls.methods] == ["html", "size"]
    assert cls.methods[0].call_sites == []


def test_unclosed_text_block_is_a_failure(tmp_path):
    write(tmp_path, "Doc.java", 'class Doc { String s = """\n  open\n; }\n')
    result = parse_corpus(tmp_path)
    assert result.units == []
    ((path, message),) = result.failures
    assert path == "Doc.java" and message.startswith("UnterminatedLiteral: Doc.java:1:")


# A file with LF line ends; its twins end lines with CR LF or a lone CR
# (both line terminators in JLS 3.4), or start with a byte order mark.
_LF_TWIN = (
    "// header\n"
    "package p;\n"
    "class A extends B { // x\n"
    '    String s = "a";\n'
    "    void m() { run(); b.go(); }\n"
    "}\n"
    "class B {\n"
    "    void run() { }\n"
    "}\n"
)


def _summary(info):
    """Names, packages, loc, methods with their call sites, and the edges."""
    model = info.model
    classes = [
        (model.qualified_name(i), cls.package_name, metrics.loc,
         [(m.name, m.call_sites) for m in cls.methods])
        for i, (cls, metrics) in enumerate(zip(model.classes, info.class_metrics))
    ]
    return classes, model.inheritance_edges, model.call_edges


@pytest.mark.parametrize("twin", [
    _LF_TWIN.replace("\n", "\r\n"),
    _LF_TWIN.replace("\n", "\r"),
    "\ufeff" + _LF_TWIN,
    "\ufeff" + _LF_TWIN.replace("\n", "\r"),
], ids=["cr-lf", "cr", "bom", "bom-cr"])
def test_line_ends_and_a_byte_order_mark_analyze_as_their_lf_twin(tmp_path, twin):
    for name, text in (("lf", _LF_TWIN), ("twin", twin)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "A.java").write_bytes(text.encode())
    expected = analyze(tmp_path / "lf")
    got = analyze(tmp_path / "twin")
    assert got.failures == expected.failures == []
    assert _summary(got) == _summary(expected)
    classes, inheritance, calls = _summary(expected)
    assert [(name, loc) for name, _, loc, _ in classes] == [("p.A", 4), ("p.B", 3)]
    assert len(inheritance) == 1 and len(calls) == 1


@pytest.mark.parametrize(
    "source,line",
    [
        ("class A { }\n}\n", 2),  # stray top-level closer
        ("class A {\n  void m() { ( }\n}\n", 2),  # { ( }
        ("class A { }\nfoo(\n", 2),  # unclosed (
        ("class A {\n  int[ x;\n}\n", 3),  # ] expected, } found
    ],
)
def test_unpaired_brackets_are_a_failure(tmp_path, source, line):
    write(tmp_path, "Good.java", "class Good { }")
    write(tmp_path, "Bad.java", source)
    result = parse_corpus(tmp_path)
    assert [u.path for u in result.units] == ["Good.java"]
    assert result.failures == [
        ("Bad.java", f"UnbalancedBraces: Bad.java:{line}: unbalanced braces")
    ]


def test_class_without_a_body_is_a_failure(tmp_path):
    write(tmp_path, "Good.java", "class Good { }")
    write(tmp_path, "Bad.java", "class A {\n  class B\n}\n")
    result = parse_corpus(tmp_path)
    assert [u.path for u in result.units] == ["Good.java"]
    assert result.failures == [
        ("Bad.java", "MissingClassBody: Bad.java:2: class B has no body")
    ]


_ERROR_NAMES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, CodeforestError)
}
_FIXTURE_FILES = [
    (p.relative_to(FIXTURES).as_posix(), p.read_bytes())
    for p in sorted(FIXTURES.rglob("*.java"))
]
_FIXTURE_BYTES = st.sampled_from([data for _, data in _FIXTURE_FILES])
_CUT = st.floats(min_value=0.0, max_value=1.0)
# Java-flavoured token soup: brackets, declaration words, literals, and
# openers of literals and comments that may never close.
_SOUP = st.lists(
    st.sampled_from(
        ["class", "interface", "record", "enum", "@interface", "A", "x", "extends",
         "implements", "void", "int", "new", "package", "import", "sealed", "non-sealed",
         "{", "}", "(", ")", "[", "]", "<", ">", ">>", ";", ",", "=", ".", "@", "\n",
         '"s"', "'c'", '"', "/*", "*/", "//", '"""', "é", "€", "\u0301"]
    ),
    max_size=50,
).map(lambda parts: " ".join(parts).encode())
_TRUNCATED = st.tuples(_FIXTURE_BYTES, _CUT).map(lambda a: a[0][: int(len(a[0]) * a[1])])
_SPLICED = st.tuples(_FIXTURE_BYTES, _CUT, _FIXTURE_BYTES, _CUT).map(
    lambda a: a[0][: int(len(a[0]) * a[1])] + a[2][int(len(a[2]) * a[3]):]
)
_SOURCE = st.one_of(_SOUP, _TRUNCATED, _SPLICED, st.binary(max_size=32))


@settings(max_examples=100, deadline=None)
@given(good=st.sampled_from(_FIXTURE_FILES), others=st.lists(_SOURCE, min_size=1, max_size=3))
def test_parse_corpus_isolates_every_bad_file(good, others):
    """Random and damaged files never raise: each is a unit or one failure."""
    good_rel, good_data = good
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = {f"good/{good_rel}": good_data}
        files.update((f"other{i}.java", data) for i, data in enumerate(others))
        for rel, data in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        result = parse_corpus(root)

    paths = [u.path for u in result.units] + [path for path, _ in result.failures]
    assert sorted(paths) == sorted(files)
    units = {u.path: u.classes for u in result.units}
    failures = dict(result.failures)
    for rel, data in files.items():
        try:
            expected = parse_unit(tokenize(data, rel))
        except CodeforestError as exc:
            assert failures[rel] == f"{type(exc).__name__}: {exc}"
            assert failures[rel].split(":", 1)[0] in _ERROR_NAMES
        else:
            assert units[rel] == expected
    assert f"good/{good_rel}" in units
