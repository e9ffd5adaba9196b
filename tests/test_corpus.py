"""Corpus walking: ordering and per-file failure isolation."""

import pytest

from codeforest.errors import RootNotFound
from codeforest.parser import parse_corpus


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
    assert [(m.name, m.loc) for m in cls.methods] == [("html", 6), ("size", 1)]
    assert cls.methods[0].call_sites == []


def test_unclosed_text_block_is_a_failure(tmp_path):
    write(tmp_path, "Doc.java", 'class Doc { String s = """\n  open\n; }\n')
    result = parse_corpus(tmp_path)
    assert result.units == []
    ((path, message),) = result.failures
    assert path == "Doc.java" and message.startswith("UnterminatedLiteral: Doc.java:1:")
