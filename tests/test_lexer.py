"""Tokenizer behaviour: lossless coverage, classification, error spans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from codeforest.errors import (
    CodeforestError,
    NonUtf8Input,
    UnterminatedComment,
    UnterminatedLiteral,
)
from codeforest.lexer import (
    KIND_CHAR,
    KIND_COMMENT,
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    KIND_NUMBER,
    KIND_PUNCTUATION,
    KIND_STRING,
    KIND_WHITESPACE,
    Span,
    tokenize,
)
from conftest import FIXTURES


def kinds_and_texts(source: str):
    return [(t.kind, t.text) for t in tokenize(source.encode())]


def test_simple_declaration_kinds():
    assert kinds_and_texts("int x = 1;") == [
        (KIND_KEYWORD, "int"),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "x"),
        (KIND_WHITESPACE, " "),
        (KIND_PUNCTUATION, "="),
        (KIND_WHITESPACE, " "),
        (KIND_NUMBER, "1"),
        (KIND_PUNCTUATION, ";"),
    ]


@pytest.mark.parametrize(
    "source",
    [
        "",
        "class A { }",
        'String s = "a\\"b"; // trailing\n',
        "/* multi\nline */ char c = '\\n';\n\tint k=0x1F;",
        "a >>>= b >>> c >> d > e;",
        "x\r\nและ = 1;",  # non-ascii identifier bytes stay intact
    ],
)
def test_concatenation_reproduces_source(source):
    tokens = tokenize(source.encode())
    assert "".join(t.text for t in tokens) == source


def test_fixture_files_tokenize_losslessly():
    for path in sorted(FIXTURES.rglob("*.java")):
        data = path.read_bytes()
        tokens = tokenize(data, str(path))
        assert "".join(t.text for t in tokens).encode() == data


def test_maximal_munch_operators():
    texts = [t.text for t in tokenize(b"a>>>=b") if t.kind == KIND_PUNCTUATION]
    assert texts == [">>>="]
    texts = [t.text for t in tokenize(b"a==b!=c<=d") if t.kind == KIND_PUNCTUATION]
    assert texts == ["==", "!=", "<="]


def test_value_words_are_keywords():
    for word in ("this", "super", "true", "false", "null", "new"):
        (tok,) = tokenize(word.encode())
        assert tok.kind == KIND_KEYWORD


def test_identifier_with_dollar_and_underscore():
    (tok,) = tokenize(b"$_name9")
    assert tok.kind == KIND_IDENTIFIER


def test_string_and_char_literals():
    toks = kinds_and_texts('p("a\\\\", \'x\')')
    assert (KIND_STRING, '"a\\\\"') in toks
    assert (KIND_CHAR, "'x'") in toks


def test_unicode_identifiers():
    assert kinds_and_texts("größe=$µ_1+é") == [
        (KIND_IDENTIFIER, "größe"),
        (KIND_PUNCTUATION, "="),
        (KIND_IDENTIFIER, "$µ_1"),
        (KIND_PUNCTUATION, "+"),
        (KIND_IDENTIFIER, "é"),
    ]


def test_identifier_parts_take_combining_marks_and_ignorables():
    # "café" with a decomposed é (e + U+0301 COMBINING ACUTE ACCENT), a
    # spacing mark (U+0903, Mc), a zero-width joiner (U+200D, Cf) and an
    # ASCII ignorable control inside identifiers (JLS 3.8).
    assert kinds_and_texts("int cafe\u0301 = a\u0903b + x\u200dy - p\x00q;") == [
        (KIND_KEYWORD, "int"),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "cafe\u0301"),
        (KIND_WHITESPACE, " "),
        (KIND_PUNCTUATION, "="),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "a\u0903b"),
        (KIND_WHITESPACE, " "),
        (KIND_PUNCTUATION, "+"),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "x\u200dy"),
        (KIND_WHITESPACE, " "),
        (KIND_PUNCTUATION, "-"),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "p\x00q"),
        (KIND_PUNCTUATION, ";"),
    ]


def test_currency_and_connecting_punctuation_in_identifiers():
    # Currency symbols (Sc) and connecting punctuation (Pc) may start or
    # continue an identifier, like "$" and "_" (JLS 3.8).
    assert kinds_and_texts("int a€b = x‿y + £p - ⁀q;") == [
        (KIND_KEYWORD, "int"),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "a€b"),
        (KIND_WHITESPACE, " "),
        (KIND_PUNCTUATION, "="),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "x‿y"),
        (KIND_WHITESPACE, " "),
        (KIND_PUNCTUATION, "+"),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "£p"),
        (KIND_WHITESPACE, " "),
        (KIND_PUNCTUATION, "-"),
        (KIND_WHITESPACE, " "),
        (KIND_IDENTIFIER, "⁀q"),
        (KIND_PUNCTUATION, ";"),
    ]


def test_marks_and_ignorables_do_not_start_identifiers():
    assert kinds_and_texts("\u0301a \u200db") == [
        (KIND_PUNCTUATION, "\u0301"),
        (KIND_IDENTIFIER, "a"),
        (KIND_WHITESPACE, " "),
        (KIND_PUNCTUATION, "\u200d"),
        (KIND_IDENTIFIER, "b"),
    ]


def test_text_block_is_one_string_literal():
    block = '"""\n  {"a";}\n  \\"""\n  ""x\n  """'
    toks = kinds_and_texts(f"s = {block};\nint y;")
    assert toks[4] == (KIND_STRING, block)
    assert toks[5] == (KIND_PUNCTUATION, ";")
    (y,) = [t for t in tokenize(f"s = {block};\nint y;".encode()) if t.text == "y"]
    assert y.span.line_start == 6


def test_unclosed_text_block_raises():
    with pytest.raises(UnterminatedLiteral) as err:
        tokenize(b'int a;\nString s = """\n  never closed "" \\"""\n;')
    assert err.value.span.line_start == 2
    assert err.value.span.byte_start == len(b'int a;\nString s = ')


def test_tolerant_numbers():
    for text in ("0x1F", "1.5e3f", "1_000", "2L", ".5d"):
        source = f"a={text};".encode()
        kinds = [t.kind for t in tokenize(source)]
        assert KIND_NUMBER in kinds, text


def test_comment_kinds():
    toks = kinds_and_texts("// line\n/* block */")
    assert toks[0] == (KIND_COMMENT, "// line")
    assert toks[-1] == (KIND_COMMENT, "/* block */")


def test_line_numbers():
    tokens = tokenize(b"a\nbb\n\nccc")
    lines = {t.text: t.span.line_start for t in tokens if t.kind == KIND_IDENTIFIER}
    assert lines == {"a": 1, "bb": 2, "ccc": 4}


def test_byte_ranges_are_contiguous_and_half_open():
    data = 'int \u00e9 = "x";'.encode()
    tokens = tokenize(data)
    at = 0
    for t in tokens:
        assert t.span.byte_start == at
        at = t.span.byte_end
        assert data[t.span.byte_start : t.span.byte_end].decode() == t.text
    assert at == len(data)


def test_unterminated_string_raises():
    with pytest.raises(UnterminatedLiteral) as err:
        tokenize(b'x = "abc\n1;')
    assert err.value.span.line_start == 1


def test_unterminated_char_raises():
    with pytest.raises(UnterminatedLiteral):
        tokenize(b"x = 'a\n")


def test_unterminated_block_comment_raises():
    with pytest.raises(UnterminatedComment) as err:
        tokenize(b"a\n/* never closed")
    assert err.value.span.line_start == 2


def test_non_utf8_input_reports_offset():
    with pytest.raises(NonUtf8Input) as err:
        tokenize(b"ab\xff\xfe", "bad.java")
    assert err.value.byte_offset == 2
    assert err.value.file_id == "bad.java"


# Java-flavoured pieces, so random text often reaches literals, comments,
# escapes, text blocks and non-ASCII names rather than only punctuation.
# Whole literals and comments keep most inputs valid; the lone openers
# reach the error paths.
_PIECES = st.sampled_from(
    [" ", "\t", "\r\n", "\n", "/", "*", "a", "x1", "int", "_$", "0x1F",
     "1.5e3f", ".", ">>>=", "->", "::", "=", "{", "}", ";", "é", "größe",
     "中", "\u00a0", "²", "\u0301", "\u200d", "\x00", "€", "‿",
     '"a\\"b"', '"\\\n"', "'\\''", "'\\\n'",
     '"""\n "" \\""" é\n"""', "/* a\n é */", "// c é", '"', '"""', "'", "/*",
     "\\"]
)
_SOURCES = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=64).map(str.encode),
    st.lists(_PIECES, max_size=40).map(lambda parts: "".join(parts).encode()),
)


@settings(max_examples=400, deadline=None)
@given(_SOURCES)
def test_tokenize_is_lossless_or_raises(data):
    try:
        tokens = tokenize(data)
    except CodeforestError:
        return
    assert "".join(t.text for t in tokens).encode() == data
    at = 0
    for t in tokens:
        assert t.span.byte_start == at < t.span.byte_end
        at = t.span.byte_end
        assert data[t.span.byte_start : at] == t.text.encode()
        assert t.span.line_start == data[: t.span.byte_start].count(b"\n") + 1
        assert t.span.line_end == t.span.line_start + t.text[:-1].count("\n")
    assert at == len(data)


def _same_as_the_loop(data: bytes) -> None:
    """``tokenize`` equals the object-building loop, token for token, or
    both raise the same error type with the same span."""
    try:
        expected = oracles.tokenize_by_loop(data, "<diff>")
    except CodeforestError as exc:
        with pytest.raises(type(exc)) as err:
            tokenize(data, "<diff>")
        assert getattr(err.value, "span", None) == getattr(exc, "span", None)
        assert str(err.value) == str(exc)
        return
    tokens = tokenize(data, "<diff>")
    assert len(tokens) == len(expected)
    assert list(tokens) == expected
    assert [tokens[i] for i in range(-len(tokens), 0)] == expected


@settings(max_examples=400, deadline=None)
@given(_SOURCES)
def test_tokenize_matches_the_object_building_loop(data):
    _same_as_the_loop(data)


# Texts whose kind the first character alone does not decide, and
# characters at the edges of each alternative.
@pytest.mark.parametrize("source", [
    "a /= b / c // d\n/**/ e /* f */", "x = ''; y = '\\''", 'p("", """\n""")',
    "/*", 'a "', "b '", "@x #y `z \\", "$a _b 9c .5 \x00d \x7f",
    "\u00a0é² ٣ \u0301x ⁀€", "\t\f\x0b\r\n",
])
def test_edge_tokens_match_the_object_building_loop(source):
    _same_as_the_loop(source.encode())


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.rglob("*.java")), ids=lambda p: p.relative_to(FIXTURES).as_posix()
)
def test_fixture_tokens_match_the_object_building_loop(path):
    _same_as_the_loop(path.read_bytes())


def test_span_joins_tokens():
    tokens = tokenize("é = 1;\nint y;".encode(), "f")
    assert tokens.span(0, len(tokens) - 1) == Span("f", 1, 2, 0, 14)
    assert tokens.span(2, 2) == tokens[2].span == Span("f", 1, 1, 3, 4)
