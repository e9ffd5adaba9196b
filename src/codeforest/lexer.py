"""Tokenizer for the supported Java subset.

Unicode escapes (``\\u0041``, JLS 3.3) are translated first, as Java
does before it reads line ends or tokens. The scanner, ``_SCAN_PATTERN``,
then matches ``(trivia)(token|\\Z)``, trivia being whitespace and
comments. Its matches tile the translated text, so one ``split`` gives
the flat list ``['', trivia, token, '', trivia, token, ..., '']``: the
tokens are a slice of it and their offsets a slice of its running
lengths, no object is built per token, and the trivia is never
classified. ``\\Z`` ends the scan on trailing trivia, which would
otherwise backtrack and give its last character to the ``.`` fallback.

``tokenize`` returns a ``Tokens`` table of the significant tokens alone,
three parallel lists ``kinds``, ``texts`` and ``starts`` (character
offsets), so ``len()`` is the significant token count. ``span(i, j)``
gives the lines from token ``i`` through token ``j``, read off a
per-file table of line starts (bisect). A line ends at LF, CR or CR LF
(JLS 3.4).

The tokens are one alternation regex whose groups name the kinds.
``_token_regex`` compiles the scanner with every named group made
non-capturing, and a token's kind is read off its text: its first
character, then a table of whole texts (keywords and the lone openers
that are errors). Trivia is a run of whitespace, then any comments,
each followed by a run of whitespace, so its common case is one run of
one character class. The token alternatives are tried in order, so the
first that matches at a position wins (the first two kinds are trivia):

* ``whitespace``     maximal run of blanks, tabs, line ends and byte order
                     marks (U+FEFF)
* ``comment``        ``//`` to end of line, or ``/* ... */`` up to the
                     first ``*/``
* ``string-literal`` a text block ``\"\"\"...\"\"\"`` (Java 15), which may span
                     lines, or a double-quoted literal on one line
* ``char-literal``   single-quoted, backslash escapes honoured
* ``keyword``        reserved words, including ``true``/``false``/``null``
* ``identifier``     a Unicode letter, currency symbol (Sc) or connecting
                     punctuation (Pc), then those, digits, combining
                     marks (Mn, Mc) and ignorable characters (JLS 3.8),
                     not a keyword
* ``number-literal`` tolerant numeric run (hex, float, suffixes)
* ``punctuation``    the separators and operators that start no longer
                     one (``(){}[];,.@?~``), then the rest, longest
                     first, with any other single character as the
                     fallback

``\\w`` already takes every Unicode letter and digit. The identifier
characters it misses are built per file, by ``_classes``, from the file's
own distinct non-ASCII characters, one ``unicodedata.category`` call
each, and ``_token_regex`` compiles the scanner, and the matcher that
tells a non-ASCII first character's kind, once per distinct pair of
classes. An ASCII file, or one whose non-ASCII characters are all
letters, digits or other symbols (``é``, ``中``, ``©``, ``→``), gets empty
classes and so the one plain scanner. A scanner matches only characters
of the text it scans, so a class cut down to them splits every text as
the class of all such code points would. Each new distinct pair costs
about 0.9 ms to compile and 4.5 KiB to keep, for the life of the
process: a corpus whose every file held another set of currency symbols,
connecting punctuation, marks or format characters would pay that per
file.

Literals must close on their own line (text blocks and block comments
before end of file); an opening quote or ``/*`` that no alternative can
close is a token of its own, and ``tokenize`` raises at the first one
rather than producing garbage structure downstream.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from bisect import bisect_right
from collections.abc import Iterable
from itertools import accumulate, islice
from operator import itemgetter

from .errors import NonUtf8Input, UnterminatedComment, UnterminatedLiteral

KIND_KEYWORD = "keyword"
KIND_IDENTIFIER = "identifier"
KIND_PUNCTUATION = "punctuation"
KIND_STRING = "string-literal"
KIND_CHAR = "char-literal"
KIND_NUMBER = "number-literal"

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
# the ASCII identifier-ignorable controls. A file's non-ASCII starts and
# parts are added by ``_token_regex`` from ``_classes``.
_ASCII_EXTRA_PART = r"\x00-\x08\x0e-\x1b\x7f"
_PART_CATEGORIES = frozenset(("Sc", "Pc", "Mn", "Mc", "Cf"))
_NON_ASCII = re.compile(r"[^\x00-\x7f]")

_WORD_START = r"(?:[^\W\d]|[$EXTRA_START])"

# A block comment is unrolled, so no lazy repeat backtracks in it: runs
# of ``[^*]*``, each ``*`` run then ending the comment at a ``/`` or
# going on with any other character.
_TRIVIA_PATTERN = r"""
    [ \t\r\n\f\x0b\ufeff]*
    (?:(?://[^\r\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)[ \t\r\n\f\x0b\ufeff]*)*
    """
# ``"(?!"")`` keeps an unclosed text block from lexing as ``""`` plus a
# string that opens at its third quote: it reaches ``open_literal``. No
# character of the first ``punctuation`` class starts a longer operator.
_TOKEN_PATTERN = r"""
    (?P<text_block>\"\"\"[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*\"\"\")
    | (?P<string>"(?!"")(?:[^"\\\r\n]|\\.)*")
    | (?P<char>'(?:[^'\\\r\n]|\\.)*')
    | (?P<word>WORD_START[\w$EXTRA_PART]*)
    | (?P<number>[0-9][0-9a-fA-FxXlLpP._]*)
    | (?P<open_comment>/\*)
    | (?P<open_literal>["'])
    | (?P<punctuation>[(){}\[\];,.@?~]|>>>=|>>>|>>=|<<=|->|::|==|!=|<=|>=|&&|\|\||\+\+|--
        |\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|.)
    """
_SCAN_PATTERN = rf"({_TRIVIA_PATTERN})({_TOKEN_PATTERN}|\Z)"
_FLAGS = re.DOTALL | re.VERBOSE


@functools.cache
def _token_regex(starts: str, parts: str) -> tuple[re.Pattern, re.Pattern]:
    """The scanner, with every named group non-capturing so that
    ``split`` returns ``''``, the trivia and the token per match, and the
    matcher of an identifier's first character, for the non-ASCII
    identifier starts and parts ``starts`` and ``parts`` (``_classes``)."""
    word_start = _WORD_START.replace("EXTRA_START", starts)
    scan = _SCAN_PATTERN.replace("WORD_START", word_start).replace(
        "EXTRA_PART", _ASCII_EXTRA_PART + parts)
    return re.compile(re.sub(r"\(\?P<\w+>", "(?:", scan), _FLAGS), re.compile(word_start)


def _classes(chars: Iterable[str]) -> tuple[str, str]:
    """The regex class contents of the identifier starts and parts among
    the distinct non-ASCII characters ``chars`` that ``\\w`` misses (JLS
    3.8), in code point order, so that equal sets give equal classes.

    Starts are the currency symbols (Sc) and connecting punctuation (Pc).
    Parts are those, the combining marks (Mn, Mc), the format characters
    (Cf) and the C1 controls (U+0080-U+009F).
    """
    starts = parts = ""
    for c in sorted(chars):
        category = unicodedata.category(c)
        if category in _PART_CATEGORIES or c < "\xa0":
            code = f"\\U{ord(c):08x}"
            parts += code
            if category in ("Sc", "Pc"):
                starts += code
    return starts, parts


# A Unicode escape (JLS 3.3): a backslash after an even run of them (the
# run is kept), one or more ``u``, then four hex digits.
_UNICODE_ESCAPE = re.compile(r"(?<!\\)((?:\\\\)*)\\u+([0-9a-fA-F]{4})")

# Kinds that are errors, not tokens: ``tokenize`` raises at the first.
_OPEN_COMMENT = "open-comment"
_OPEN_LITERAL = "open-literal"

# A token's kind from its first character, for an ASCII one: no two
# token alternatives start with the same ASCII character, but for ``/``
# and the quotes (an operator or a literal, or a lone opener), and the
# fallback takes any character the others do not. Where the first
# character leaves the kind open, the whole text decides: a keyword, or
# a lone ``/*``, ``"`` or ``'``. A non-ASCII first character starts an
# identifier or is punctuation on its own (``tokenize`` tells which).
_KIND_OF_FIRST = dict.fromkeys(map(chr, range(128)), KIND_PUNCTUATION)
_KIND_OF_FIRST.update(dict.fromkeys(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$", KIND_IDENTIFIER))
_KIND_OF_FIRST.update(dict.fromkeys("0123456789", KIND_NUMBER))
_KIND_OF_FIRST.update({'"': KIND_STRING, "'": KIND_CHAR})
_KIND_OF_TEXT = dict.fromkeys(KEYWORDS, KIND_KEYWORD)
_KIND_OF_TEXT.update({"/*": _OPEN_COMMENT, '"': _OPEN_LITERAL, "'": _OPEN_LITERAL})
_first_char = itemgetter(0)


class Span:
    """1-based inclusive line range."""

    __slots__ = ("file_id", "line_start", "line_end")

    def __init__(self, file_id: str, line_start: int, line_end: int):
        self.file_id = file_id
        self.line_start = line_start
        self.line_end = line_end

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, key) == getattr(other, key) for key in self.__slots__)


class Tokens:
    """One file's significant tokens as a table of parallel lists.

    Token ``i`` has kind ``kinds[i]`` and text ``texts[i]`` and starts at
    character offset ``starts[i]``.
    """

    __slots__ = ("file_id", "kinds", "texts", "starts", "_line_starts")

    def __init__(self, file_id: str, text: str, kinds: list[str], texts: list[str],
                 starts: list[int]):
        self.file_id = file_id
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        # The offset of each line's first character, then one past the
        # end. CR LF becomes a blank and LF, a lone CR an LF: one line
        # end each, and every offset kept.
        lines = text.replace("\r\n", " \n").replace("\r", "\n").split("\n")
        self._line_starts = list(accumulate(map((1).__add__, map(len, lines)), initial=0))

    def __len__(self) -> int:
        return len(self.texts)

    def span(self, i: int, j: int) -> Span:
        """The lines from the start of token ``i`` to the end of token ``j``.

        A token's last line is that of its last character, so a trailing
        line end does not carry it onto the next line.
        """
        lines = self._line_starts
        return Span(self.file_id, bisect_right(lines, self.starts[i]),
                    bisect_right(lines, self.starts[j] + len(self.texts[j]) - 1))


def tokenize(source: bytes, file_id: str = "<memory>") -> Tokens:
    """Split ``source``, Unicode escapes translated, into its significant tokens.

    Raises NonUtf8Input, UnterminatedLiteral or UnterminatedComment.
    """
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NonUtf8Input(exc.start, file_id) from None
    if "\\u" in text:
        # Escapes come before line ends (JLS 3.4), so ``\\u000a`` is one. An
        # escaped surrogate pair is one code point, as Java reads UTF-16.
        text = _UNICODE_ESCAPE.sub(lambda m: m[1] + chr(int(m[2], 16)), text).encode(
            "utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")

    ascii_only = text.isascii()
    classes = ("", "") if ascii_only else _classes(set(_NON_ASCII.findall(text)))
    scanner, word_start = _token_regex(*classes)
    # The matches tile the text, so ``split`` gives ``['', trivia, token]``
    # per match, then a last ``''``. Only ``\Z`` matches an empty token:
    # once or twice, at the end.
    parts = scanner.split(text)
    texts = parts[2::3]
    while texts and not texts[-1]:
        texts.pop()
    # The running length after each trivia is where its token starts.
    starts = list(islice(accumulate(map(len, parts)), 1, 3 * len(texts), 3))
    by_first = map(_KIND_OF_FIRST.get, map(_first_char, texts))
    kinds = list(map(_KIND_OF_TEXT.get, texts, by_first))
    if not ascii_only and None in kinds:
        kinds = [kind or (KIND_IDENTIFIER if word_start.match(t) else KIND_PUNCTUATION)
                 for kind, t in zip(kinds, texts)]
    tokens = Tokens(file_id, text, kinds, texts, starts)
    errors = [kinds.index(k) for k in (_OPEN_COMMENT, _OPEN_LITERAL) if k in kinds]
    if errors:
        at = min(errors)
        raise (UnterminatedComment if kinds[at] == _OPEN_COMMENT else UnterminatedLiteral)(
            tokens.span(at, at))
    return tokens
