"""Tokenizer behaviour: lossless coverage, classification, error spans.

``tokenize`` keeps the significant tokens alone; the whitespace and
comments between them are checked against the rows of
``oracles.tokenize_by_loop``, which keeps every piece of the text.
"""

import re
import unicodedata
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from codeforest import lexer
from codeforest.errors import (
    CodeforestError,
    NonUtf8Input,
    UnterminatedComment,
    UnterminatedLiteral,
)
from codeforest.lexer import (
    KIND_CHAR,
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    KIND_NUMBER,
    KIND_PUNCTUATION,
    KIND_STRING,
    Span,
    tokenize,
)
from conftest import FIXTURES


def kinds_and_texts(source: str):
    tokens = tokenize(source.encode())
    return list(zip(tokens.kinds, tokens.texts))


def pieces(data: bytes, tokens) -> list[str]:
    """The text of ``data``, Unicode escapes translated, cut into the
    trivia before each token, that token, ..., and the trivia at the end.

    Each token's text must sit at its offset, and each run of trivia
    must be the whitespace and comment rows that ``tokenize_by_loop``
    gives there.
    """
    text = oracles.translate_unicode_escapes(data.decode())
    trivia, run = [], []
    for kind, chunk, _, _ in oracles.tokenize_by_loop(data):
        if kind in oracles.TRIVIA_KINDS:
            run.append(chunk)
        else:
            trivia.append("".join(run))
            run = []
    trivia.append("".join(run))
    ends = [start + len(token) for start, token in zip(tokens.starts, tokens.texts)]
    assert [text[start:end] for start, end in zip(tokens.starts, ends)] == tokens.texts
    assert [text[a:b] for a, b in zip([0, *ends], [*tokens.starts, len(text)])] == trivia
    out = [trivia[0]]
    for token, gap in zip(tokens.texts, trivia[1:]):
        out += [token, gap]
    return out


def test_simple_declaration_kinds():
    assert kinds_and_texts("int x = 1;") == [
        (KIND_KEYWORD, "int"),
        (KIND_IDENTIFIER, "x"),
        (KIND_PUNCTUATION, "="),
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
        "\ufeffclass A {\r// c\r}\r",
    ],
)
def test_concatenation_reproduces_source(source):
    tokens = tokenize(source.encode())
    assert "".join(pieces(source.encode(), tokens)) == source


def test_fixture_files_tokenize_losslessly():
    for path in sorted(FIXTURES.rglob("*.java")):
        data = path.read_bytes()
        tokens = tokenize(data, str(path))
        assert "".join(pieces(data, tokens)).encode() == data


def test_maximal_munch_operators():
    texts = [t for k, t in kinds_and_texts("a>>>=b") if k == KIND_PUNCTUATION]
    assert texts == [">>>="]
    texts = [t for k, t in kinds_and_texts("a==b!=c<=d") if k == KIND_PUNCTUATION]
    assert texts == ["==", "!=", "<="]


def test_value_words_are_keywords():
    for word in ("this", "super", "true", "false", "null", "new"):
        assert kinds_and_texts(word) == [(KIND_KEYWORD, word)]


def test_identifier_with_dollar_and_underscore():
    assert kinds_and_texts("$_name9") == [(KIND_IDENTIFIER, "$_name9")]


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
        (KIND_IDENTIFIER, "cafe\u0301"),
        (KIND_PUNCTUATION, "="),
        (KIND_IDENTIFIER, "a\u0903b"),
        (KIND_PUNCTUATION, "+"),
        (KIND_IDENTIFIER, "x\u200dy"),
        (KIND_PUNCTUATION, "-"),
        (KIND_IDENTIFIER, "p\x00q"),
        (KIND_PUNCTUATION, ";"),
    ]


def test_currency_and_connecting_punctuation_in_identifiers():
    # Currency symbols (Sc) and connecting punctuation (Pc) may start or
    # continue an identifier, like "$" and "_" (JLS 3.8).
    assert kinds_and_texts("int a€b = x‿y + £p - ⁀q;") == [
        (KIND_KEYWORD, "int"),
        (KIND_IDENTIFIER, "a€b"),
        (KIND_PUNCTUATION, "="),
        (KIND_IDENTIFIER, "x‿y"),
        (KIND_PUNCTUATION, "+"),
        (KIND_IDENTIFIER, "£p"),
        (KIND_PUNCTUATION, "-"),
        (KIND_IDENTIFIER, "⁀q"),
        (KIND_PUNCTUATION, ";"),
    ]


def test_marks_and_ignorables_do_not_start_identifiers():
    assert kinds_and_texts("\u0301a \u200db") == [
        (KIND_PUNCTUATION, "\u0301"),
        (KIND_IDENTIFIER, "a"),
        (KIND_PUNCTUATION, "\u200d"),
        (KIND_IDENTIFIER, "b"),
    ]


def test_every_code_point_joins_identifiers_as_the_whole_table_says():
    # The per-character rule on every non-ASCII code point, surrogates
    # too, against the whole table the lexer once built.
    starts, parts = (set(map(int, re.findall(r"\\U(\w{8})", cls), repeat(16)))
                     for cls in lexer._classes(map(chr, range(0x80, 0x110000))))
    want_starts, want_parts = oracles.identifier_code_points()
    assert starts == want_starts
    assert parts == want_parts


def test_scanners_are_compiled_per_distinct_identifier_classes(monkeypatch):
    lexer._token_regex.cache_clear()
    compiled, looked_up = [], []
    compile_, category = re.compile, unicodedata.category
    monkeypatch.setattr(re, "compile", lambda *a: compiled.append(a) or compile_(*a))
    monkeypatch.setattr(unicodedata, "category", lambda c: looked_up.append(c) or category(c))

    tokenize(b"class A { int x; }")
    assert compiled and not looked_up
    # Letters, digits and other symbols, in code, comments and literals,
    # need no class of their own: the ASCII scanner takes them.
    compiled.clear()
    letters = "/* ©é */ class Größe { int 中² = 1; String s = \"→ é\"; } // ٣"
    tokens = tokenize(letters.encode())
    assert tokens.texts[1:3] == ["Größe", "{"] and "中²" in tokens.texts
    assert compiled == []
    assert sorted(looked_up) == sorted({c for c in letters if not c.isascii()})

    looked_up.clear()
    euro = "class P { int a€b; String s = \"€ é\"; }"
    assert "a€b" in tokenize(euro.encode()).texts
    assert len(compiled) == 2  # the scanner and its identifier-start matcher
    assert sorted(looked_up) == ["é", "€"]
    compiled.clear()
    assert "€x" in tokenize("class Q { int €x; } // é".encode()).texts
    tokenize(b"class R { }")
    assert compiled == []


def test_text_block_is_one_string_literal():
    block = '"""\n  {"a";}\n  \\"""\n  ""x\n  """'
    toks = kinds_and_texts(f"s = {block};\nint y;")
    assert toks[2] == (KIND_STRING, block)
    assert toks[3] == (KIND_PUNCTUATION, ";")
    tokens = tokenize(f"s = {block};\nint y;".encode())
    y = tokens.texts.index("y")
    assert tokens.span(y, y) == Span("<memory>", 6, 6)


def test_unclosed_text_block_raises():
    with pytest.raises(UnterminatedLiteral) as err:
        tokenize(b'int a;\nString s = """\n  never closed "" \\"""\n;')
    assert err.value.span == Span("<memory>", 2, 2)


def test_tolerant_numbers():
    for text in ("0x1F", "1.5e3f", "1_000", "2L", ".5d"):
        assert KIND_NUMBER in tokenize(f"a={text};".encode()).kinds, text


def test_comments_are_trivia():
    assert kinds_and_texts("// line\n/* block */") == []
    tokens = tokenize(b"a// line\n/* block */b/c")
    assert (tokens.texts, tokens.starts) == (["a", "b", "/", "c"], [0, 20, 21, 22])


def _lines(tokens) -> list[tuple[str, int, int]]:
    """Each token's text with its first and last line."""
    spans = map(tokens.span, range(len(tokens)), range(len(tokens)))
    return [(text, s.line_start, s.line_end) for text, s in zip(tokens.texts, spans)]


def test_line_numbers():
    tokens = tokenize(b"a\nbb\n\nccc")
    lines = {t: first for t, first, _ in _lines(tokens) if t.isalpha()}
    assert lines == {"a": 1, "bb": 2, "ccc": 4}


def test_cr_lf_and_a_lone_cr_each_end_one_line():
    # JLS 3.4: LF, CR and CR LF are line terminators; LF CR is two.
    tokens = tokenize("a\r\nbb\rc /* \r\r\n */ d\n\r\u00e9".encode())
    assert _lines(tokens) == [
        ("a", 1, 1), ("bb", 2, 2), ("c", 3, 3), ("d", 5, 5), ("\u00e9", 7, 7),
    ]


def test_a_line_comment_stops_at_a_lone_cr():
    tokens = tokenize(b"// header\rpackage p;")
    assert _lines(tokens)[0] == ("package", 2, 2)
    assert kinds_and_texts("// header\rpackage p;") == [
        (KIND_KEYWORD, "package"),
        (KIND_IDENTIFIER, "p"),
        (KIND_PUNCTUATION, ";"),
    ]


@pytest.mark.parametrize("source", [b'x = "a\rb";', b"c = '\r';"])
def test_a_raw_cr_in_a_literal_raises(source):
    with pytest.raises(UnterminatedLiteral) as err:
        tokenize(source)
    assert err.value.span == Span("<memory>", 1, 1)


def test_a_byte_order_mark_is_whitespace():
    assert kinds_and_texts("\ufeffpackage p; a\ufeffb") == [
        (KIND_KEYWORD, "package"),
        (KIND_IDENTIFIER, "p"),
        (KIND_PUNCTUATION, ";"),
        # Inside a name it is an ignorable part (Cf), so the name stays whole.
        (KIND_IDENTIFIER, "a\ufeffb"),
    ]


# Unicode escapes (JLS 3.3) are translated before anything else is read.

def test_unicode_escape_joins_an_identifier():
    # An escape may repeat its ``u``.
    assert kinds_and_texts("class A\\u0042 x\\uuu0031") == [
        (KIND_KEYWORD, "class"), (KIND_IDENTIFIER, "AB"), (KIND_IDENTIFIER, "x1")]


def test_unicode_escape_line_end_ends_a_comment_and_a_line():
    tokens = tokenize(b"// c \\u000a void real() {}")
    assert _lines(tokens)[0] == ("void", 2, 2)


def test_an_escaped_backslash_starts_no_unicode_escape():
    # An even run of backslashes before ``u`` is escapes of themselves;
    # the backslash a ``\\u005c`` makes starts no further escape.
    assert kinds_and_texts(r's = "\\u0041\\\u0041";')[2] == (KIND_STRING, r'"\\u0041\\A"')
    assert kinds_and_texts(r"c = '\u005cu0041';")[2] == (KIND_CHAR, r"'\u0041'")


def test_unicode_escapes_of_a_surrogate_pair_are_one_code_point():
    tokens = tokenize(b"a\\ud83c\\udf32 = '\\udc00';")
    assert tokens.texts == ["a", "\U0001f332", "=", "'\udc00'", ";"]


def test_a_backslash_u_without_four_hex_digits_stays():
    data = b"a \\u00 \\uz123 \\"
    assert "".join(pieces(data, tokenize(data))) == "a \\u00 \\uz123 \\"


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
    [" ", "\t", "\r\n", "\r", "\n", "\ufeff", "/", "*", "a", "x1", "int", "_$", "0x1F",
     "1.5e3f", ".", ">>>=", "->", "::", "=", "{", "}", ";", "é", "größe",
     "中", "\u00a0", "²", "\u0301", "\u0903", "\u200d", "\U000e0041", "\x85", "\x00",
     "€", "‿",
     '"a\\"b"', '"\\\n"', "'\\''", "'\\\n'",
     '"""\n "" \\""" é\n"""', "/* a\n é */", "*/", "**/", "/**/", "/***/", "// c é",
     '"', '"""', "'", "/*",
     "\\", "u", "\\u0041", "\\uu000a", "\\\\u0042", "\\ud83c\\udf32", "\\uDC00", "\\u00e9",
     "\\u005c", "\\u0022", "\\u000D", "\\u0"]
)
_LINE_END = re.compile(r"\r\n|\r|\n")
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
    # Lossless against the text with its Unicode escapes translated,
    # where lines are counted too (JLS 3.3 comes before 3.4).
    text = oracles.translate_unicode_escapes(data.decode())
    assert "".join(pieces(data, tokens)) == text
    for at, (chunk, first, last) in zip(tokens.starts, _lines(tokens)):
        assert chunk and first == len(_LINE_END.findall(text[:at])) + 1
        at += len(chunk)
        # A trailing line end sits on the line it terminates.
        assert last == len(_LINE_END.findall(text[:at])) + 1 - (text[at - 1] in "\r\n")


def _same_as_the_loop(data: bytes) -> None:
    """``tokenize`` equals the reference loop's significant rows, row by
    row (kind, text and lines), or both raise the same error type with
    the same span."""
    try:
        expected = oracles.tokenize_by_loop(data, "<diff>")
    except CodeforestError as exc:
        with pytest.raises(type(exc)) as err:
            tokenize(data, "<diff>")
        assert getattr(err.value, "span", None) == getattr(exc, "span", None)
        assert str(err.value) == str(exc)
        return
    expected = [row for row in expected if row[0] not in oracles.TRIVIA_KINDS]
    tokens = tokenize(data, "<diff>")
    assert len(tokens) == len(expected)
    assert [(k, *row) for k, row in zip(tokens.kinds, _lines(tokens))] == expected


@settings(max_examples=400, deadline=None)
@given(_SOURCES)
def test_tokenize_matches_the_object_building_loop(data):
    _same_as_the_loop(data)


# Texts whose kind the first character alone does not decide, and
# characters at the edges of each alternative.
@pytest.mark.parametrize("source", [
    "a /= b / c // d\n/**/ e /* f */", "x = ''; y = '\\''", 'p("", """\n""")',
    "/*", 'a "', "b '", "@x #y `z \\", "$a _b 9c .5 \x00d \x7f",
    "\u00a0é² ٣ \u0301x ⁀€", "\t\f\x0b\r\n", "\ufeffa // b\rc\r\n\n\rd\ufeffe \ufeff",
])
def test_edge_tokens_match_the_object_building_loop(source):
    _same_as_the_loop(source.encode())


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.rglob("*.java")), ids=lambda p: p.relative_to(FIXTURES).as_posix()
)
def test_fixture_tokens_match_the_object_building_loop(path):
    _same_as_the_loop(path.read_bytes())


def test_span_joins_tokens():
    tokens = tokenize("é = 1;\nint y;\r\n".encode(), "f")
    assert tokens.texts == ["é", "=", "1", ";", "int", "y", ";"]
    assert tokens.span(0, len(tokens) - 1) == Span("f", 1, 2)
    assert tokens.span(1, 4) == Span("f", 1, 2)
    assert tokens.span(1, 1) == Span("f", 1, 1)
