"""Lossless tokenizer for the supported Java subset.

Every byte of the input lands in exactly one token, so concatenating
``token.text`` over the stream reproduces the file verbatim. That
property is what lets later stages report spans (line and byte ranges)
without keeping a second copy of the source.

The scanner is one alternation regex, ``_TOKEN_PATTERN``, with a named
group per kind; the loop dispatches on the name of the group that
matched. ``_token_regex`` compiles it once for ASCII text and once, on
first use, for text with non-ASCII characters. Alternatives are tried
in order, so the first that matches at a position wins:

* ``whitespace``     maximal run of blanks, tabs and newlines
* ``comment``        ``//`` to end of line, or ``/* ... */``
* ``string-literal`` a text block ``\"\"\"...\"\"\"`` (Java 15), which may span
                     lines, or a double-quoted literal on one line
* ``char-literal``   single-quoted, backslash escapes honoured
* ``keyword``        reserved words, including ``true``/``false``/``null``
* ``identifier``     a Unicode letter, currency symbol (Sc) or connecting
                     punctuation (Pc), then those, digits, combining
                     marks (Mn, Mc) and ignorable characters (JLS 3.8),
                     not a keyword
* ``number-literal`` tolerant numeric run (hex, float, suffixes)
* ``punctuation``    operators and separators, longest first, with any
                     other single character as the fallback

Literals must close on their own line (text blocks and block comments
before end of file); an opening quote or ``/*`` that no alternative can
close matches one of two error groups and raises, rather than producing
garbage structure downstream.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass

from .errors import NonUtf8Input, UnterminatedComment, UnterminatedLiteral

KIND_KEYWORD = "keyword"
KIND_IDENTIFIER = "identifier"
KIND_PUNCTUATION = "punctuation"
KIND_STRING = "string-literal"
KIND_CHAR = "char-literal"
KIND_NUMBER = "number-literal"
KIND_COMMENT = "comment"
KIND_WHITESPACE = "whitespace"

TRIVIA_KINDS = frozenset((KIND_COMMENT, KIND_WHITESPACE))

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null
    """.split()
)

ASSIGNMENT_OPERATORS = frozenset(
    ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=")
)

# Identifier parts beyond ``[\w$]`` (Character.isJavaIdentifierPart):
# the ASCII identifier-ignorable controls. Non-ASCII starts and parts are
# added by ``_token_regex``.
_ASCII_EXTRA_PART = r"\x00-\x08\x0e-\x1b\x7f"

# ``"(?!"")`` keeps an unclosed text block from lexing as ``""`` plus a
# string that opens at its third quote: it reaches ``open_literal``.
_TOKEN_PATTERN = r"""
    (?P<whitespace>[ \t\r\n\f\x0b]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<text_block>\"\"\"[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*\"\"\")
    | (?P<string>"(?!"")(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)*')
    | (?P<word>(?:[^\W\d]|[$EXTRA_START])[\w$EXTRA_PART]*)
    | (?P<number>[0-9][0-9a-fA-FxXlLpP._]*)
    | (?P<open_comment>/\*)
    | (?P<open_literal>["'])
    | (?P<punctuation>>>>=|>>>|>>=|<<=|->|::|==|!=|<=|>=|&&|\|\||\+\+|--
        |\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|.)
    """


def _ranges(codes: list[int]) -> str:
    """Regex class ranges covering the ascending code points ``codes``."""
    ranges = []
    start = prev = codes[0]
    for c in codes[1:] + [-1]:
        if c != prev + 1:
            ranges.append(f"\\U{start:08x}-\\U{prev:08x}")
            start = c
        prev = c
    return "".join(ranges)


def _non_ascii_classes() -> tuple[str, str]:
    """Class ranges of the non-ASCII identifier starts and parts ``\\w`` misses.

    Starts are the currency symbols (Sc) and connecting punctuation (Pc).
    Parts are those plus the combining marks (Mn, Mc), the format
    characters (Cf) and the C1 controls, all identifier-ignorable or part
    characters in JLS 3.8. Unicode assigns Sc and Pc only in planes 0 and
    1, and Mn, Mc and Cf only there and in the tag and variation-selector
    blocks at U+E0000-U+E0FFF, so only those are scanned.
    """
    category = unicodedata.category
    part_categories = frozenset(("Sc", "Pc", "Mn", "Mc", "Cf"))
    starts = []
    parts = list(range(0x80, 0xA0))
    for block in (range(0xA0, 0x20000), range(0xE0000, 0xE1000)):
        for c, cat in zip(block, map(category, map(chr, block))):
            if cat in part_categories:
                parts.append(c)
                if cat in ("Sc", "Pc"):
                    starts.append(c)
    return _ranges(starts), _ranges(parts)


@functools.cache
def _token_regex(ascii_only: bool) -> re.Pattern:
    """The scanner; for non-ASCII text it is built once, on first use.

    ASCII text cannot hold a non-ASCII identifier part, so importing the
    module and tokenizing ASCII sources never pay for the Unicode scan.
    """
    starts, parts = ("", "") if ascii_only else _non_ascii_classes()
    pattern = _TOKEN_PATTERN.replace("EXTRA_START", starts)
    return re.compile(pattern.replace("EXTRA_PART", _ASCII_EXTRA_PART + parts),
                      re.DOTALL | re.VERBOSE)


_KIND_OF_GROUP = {
    "whitespace": KIND_WHITESPACE,
    "line_comment": KIND_COMMENT,
    "block_comment": KIND_COMMENT,
    "text_block": KIND_STRING,
    "string": KIND_STRING,
    "char": KIND_CHAR,
    "number": KIND_NUMBER,
    "punctuation": KIND_PUNCTUATION,
}
# Only these groups can hold a newline (an escaped one, in literals).
_MULTILINE_GROUPS = frozenset(
    ("whitespace", "block_comment", "text_block", "string", "char")
)


@dataclass(slots=True)
class Span:
    """Half-open byte range plus 1-based inclusive line range."""

    file_id: str
    line_start: int
    line_end: int
    byte_start: int
    byte_end: int


@dataclass(slots=True)
class Token:
    kind: str
    text: str
    span: Span


def tokenize(source: bytes, file_id: str = "<memory>") -> list[Token]:
    """Split ``source`` into a lossless token stream.

    Raises NonUtf8Input, UnterminatedLiteral or UnterminatedComment.
    """
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NonUtf8Input(exc.start, file_id) from None

    # For ASCII text a character offset is a byte offset.
    ascii_only = text.isascii()
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    byte = 0
    for m in _token_regex(ascii_only).finditer(text):
        group = m.lastgroup
        chunk = m.group()
        if ascii_only:
            byte, end = m.span()
        else:
            end = byte + len(chunk.encode("utf-8"))
        if group == "word":
            kind = KIND_KEYWORD if chunk in KEYWORDS else KIND_IDENTIFIER
        elif group == "open_comment":
            raise UnterminatedComment(Span(file_id, line, line, byte, byte))
        elif group == "open_literal":
            raise UnterminatedLiteral(Span(file_id, line, line, byte, byte))
        else:
            kind = _KIND_OF_GROUP[group]
        if group in _MULTILINE_GROUPS and "\n" in chunk:
            newlines = chunk.count("\n")
            # A trailing newline sits on the line it terminates, so it
            # does not advance line_end past it.
            last = line + newlines - (chunk[-1] == "\n")
            append(Token(kind, chunk, Span(file_id, line, last, byte, end)))
            line += newlines
        else:
            append(Token(kind, chunk, Span(file_id, line, line, byte, end)))
        byte = end
    return tokens
