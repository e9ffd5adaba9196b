"""Lossless tokenizer for the supported Java subset.

Every byte of the input lands in exactly one token, so concatenating
``token.text`` over the stream reproduces the file verbatim. That
property is what lets later stages report spans (line and byte ranges)
without keeping a second copy of the source.

The scanner is one compiled alternation regex, ``_TOKEN``, with a named
group per kind; the loop dispatches on the name of the group that
matched. Alternatives are tried in order, so the first that matches at
a position wins:

* ``whitespace``     maximal run of blanks, tabs and newlines
* ``comment``        ``//`` to end of line, or ``/* ... */``
* ``string-literal`` a text block ``\"\"\"...\"\"\"`` (Java 15), which may span
                     lines, or a double-quoted literal on one line
* ``char-literal``   single-quoted, backslash escapes honoured
* ``keyword``        reserved words, including ``true``/``false``/``null``
* ``identifier``     a Unicode letter, ``_`` or ``$``, then letters,
                     digits, ``_`` and ``$`` (JLS 3.8), not a keyword
* ``number-literal`` tolerant numeric run (hex, float, suffixes)
* ``punctuation``    operators and separators, longest first, with any
                     other single character as the fallback

Literals must close on their own line (text blocks and block comments
before end of file); an opening quote or ``/*`` that no alternative can
close matches one of two error groups and raises, rather than producing
garbage structure downstream.
"""

from __future__ import annotations

import re
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

# ``"(?!"")`` keeps an unclosed text block from lexing as ``""`` plus a
# string that opens at its third quote: it reaches ``open_literal``.
_TOKEN = re.compile(
    r"""
    (?P<whitespace>[ \t\r\n\f\x0b]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<text_block>\"\"\"[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*\"\"\")
    | (?P<string>"(?!"")(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)*')
    | (?P<word>(?:[^\W\d]|\$)[\w$]*)
    | (?P<number>[0-9][0-9a-fA-FxXlLpP._]*)
    | (?P<open_comment>/\*)
    | (?P<open_literal>["'])
    | (?P<punctuation>>>>=|>>>|>>=|<<=|->|::|==|!=|<=|>=|&&|\|\||\+\+|--
        |\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|.)
    """,
    re.DOTALL | re.VERBOSE,
)

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
    for m in _TOKEN.finditer(text):
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
