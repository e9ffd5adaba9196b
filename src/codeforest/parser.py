"""Declaration extractor for the supported Java subset.

The parser walks the significant tokens of one compilation unit and
pulls out the structure later stages care about:

* the package name,
* class, interface and record declarations, nested ones flattened to
  ``Outer.Inner`` names (record components become fields),
* field declarations (name plus declared type as written),
* method and constructor declarations, a record's compact constructor
  (``P { check(x); }``) among them,
* per-body field reads, field writes and call sites.

Unicode escapes are translated by ``tokenize``: ``class A\\u0042`` is ``AB``.

One loop, ``parse_members``, reads the declarations of every level
alike from one stack of open bodies, so any nesting depth parses: the
unit's top level up to its end, each class body up to its ``}``. The
top level drops the fields and methods it finds. One rule
covers the modifiers the subset does not know: an identifier directly
before a keyword, an annotation or a type declaration is one, and so is
``non-sealed`` written without blanks (``sealed interface``,
``non-sealed class``, ``value final class``, ``sealed @A class``). It
is dropped at every level. Two such words in a row (``sealed value
class``) are not read as modifiers, and the declaration after them is
dropped. An annotation type declaration (``@interface``) is skipped
whole, as an ``enum`` is.

One head walk, ``walk_head``, reads the head of every member and record
component after its modifiers, up to the first of ``_HEAD_ENDS``, with
``<...>`` groups and annotations jumped whole: ``String @A(1, 2) []``
is one type, in a record header too. One rule tells type arguments from
a comparison: a ``<`` whose group closes (``take_generics``) before a
``;``, ``=``, ``{`` or closer holds type arguments. A field declarator
list jumps such a group, so its ``,`` (``o instanceof Map<K, V> m, c``,
``List.<K, V>of(), c``) splits no declarator; any other ``<`` is
stepped over as a comparison (``boolean a = x < y, b;``).

Method bodies are scanned once the whole unit is read, so every field
is known, and code is read forward only, with the walks the
declarations use. An annotation in code is jumped whole
(``past_annotations``), so ``@Deprecated`` and ``@SuppressWarnings(MAX)``
read no field. A call site is an identifier directly before ``(``, and
the type after ``new`` or ``instanceof``, or after ``case`` in a pattern,
is read whole (``read_type_ref``): ``return g()``, ``yield g()`` and
``when g()`` call, ``new a.B()`` and a record pattern ``case P(var x)``
do not, and a type, there, before a declared name (``Point[] p;``), in
a cast (``(Point) o``) or as a type argument (``List<Point> p``), is no
field read. A class body in code, after ``new T(...)`` or in a local
type declaration, is read by ``parse_members`` as every class body is,
its classes dropped; only the code it hands back (method bodies,
initializer blocks, field initializers) is scanned, for the enclosing
method, so no member head is read as a call. A call's receiver is the
word before its ``.``. A ``.<`` opens explicit type arguments, read by
``take_generics``: when they close before a name and ``(``, that name is
called on the word before the ``.`` (``List.<K, V>of()`` on ``List``,
``this.<T>m()`` on ``this``) and is no field read. In ``if (a > m())``
no ``.<`` comes before the ``>``, so ``m()`` is a bare call.

Everything else (imports, annotations, generics, enum bodies, code the
subset does not model) is consumed and dropped. The parser never guesses
across bracket boundaries: ``(``/``)``, ``[``/``]`` and ``{``/``}`` are
paired once per file in one bracket table (``match_brackets``), every
scan jumps over a group to its partner and stops at the closer of the
group it is in, so class, method and record bodies end where their
brackets pair. A file whose brackets do not pair raises
``UnbalancedBraces`` instead of producing a skewed model, and a class
header that reaches a closer or end of file before its ``{`` raises
``MissingClassBody``.

A class records one parent name: the ``extends`` target when present,
otherwise the first ``implements`` target. That single-parent reading
keeps the inheritance relation a forest, which the layout stage relies
on, and matches how the metric treats interface implementation as
inheritance participation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress, count

from . import Record
from .errors import (
    CodeforestError,
    MissingClassBody,
    MissingClassName,
    RootNotFound,
    UnbalancedBraces,
)
from .lexer import (
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    Span,
    Tokens,
    tokenize,
)

RECEIVER_THIS = "implicit-this"
RECEIVER_NAMED = "named"
RECEIVER_OTHER = "other"

_MODIFIERS = frozenset(
    """public protected private static final abstract native synchronized
    transient volatile strictfp default""".split()
)

# First words of a class, interface or record declaration, and the words
# that can open a class body in code (see ``code_after``).
_TYPE_WORDS = frozenset(("class", "interface", "record"))
_BODY_WORDS = _TYPE_WORDS | {"enum", "new"}

_PARTNER = {"(": ")", "[": "]", "{": "}"}
_OPENERS = frozenset(_PARTNER)
_CLOSERS = frozenset(_PARTNER.values())
_BRACKETS = _OPENERS | _CLOSERS

# A field name before an assignment or a step, or after a step, is written.
_STEPS = frozenset(("++", "--"))
_WRITES_AFTER = _STEPS | frozenset(
    ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="))

# How many ``<...>`` levels each token closes.
_ANGLE_CLOSES = {">": 1, ">>": 2, ">>>": 3}

# Tokens that end the head (modifiers stripped) of a member or a record
# component; "" is the padding past the last token, where a top-level head ends.
_HEAD_ENDS = frozenset(("(", ")", "=", ";", ",", "{", "}", ""))

# Empty entries past the last significant token: a lookahead reads at
# most two tokens past a cursor at most one past the last token.
_PAD = 2


class FieldDecl(Record):
    __slots__ = ("name", "declared_type")

    def __init__(self, name: str, declared_type: str):
        self.name = name
        self.declared_type = declared_type


class CallSite(Record):
    __slots__ = ("callee_name", "receiver_kind", "receiver_name")

    def __init__(self, callee_name: str, receiver_kind: str, receiver_name: str | None):
        self.callee_name = callee_name
        self.receiver_kind = receiver_kind  # RECEIVER_THIS, RECEIVER_NAMED or RECEIVER_OTHER
        self.receiver_name = receiver_name  # only for RECEIVER_NAMED


@dataclass  # bench/tracing.py's _resolution_by_kind calls dataclasses.replace on it
class MethodDecl:
    name: str
    has_params: bool
    return_type: str  # compact source text; "" for constructors
    reads_fields: set[str]
    writes_fields: set[str]
    call_sites: list[CallSite]


@dataclass  # bench/tracing.py's _resolution_by_kind calls dataclasses.replace on it
class ClassDecl:
    name: str  # nested classes flattened as Outer.Inner
    package_name: str  # "" for the default package
    super_name: str | None
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    span: Span

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]


class CorpusUnit:
    __slots__ = ("path", "classes")

    def __init__(self, path: str, classes: list[ClassDecl]):
        self.path = path  # corpus-relative posix path
        self.classes = classes


class CorpusParse:
    __slots__ = ("units", "failures", "warnings")

    def __init__(self, units: list[CorpusUnit], failures: list[tuple[str, str]],
                 warnings: list[str]):
        self.units = units
        self.failures = failures  # (path, "ErrorType: detail")
        self.warnings = warnings


class _Parser:
    """Cursor over the tokens of one compilation unit.

    ``kinds`` and ``texts`` are the unit's ``Tokens`` lists with ``_PAD``
    empty entries past the last token, so a lookahead reads ``""``
    there. A ``Span`` is built only for a class or an error. ``partner``
    is the unit's bracket table. Every scan moves either one token at a
    time or from an opener past its partner, and stops at the closer of
    the group it is in, so no scan leaves the group it started in.

    A keyword's text is only ever a keyword's, and ``(`` or ``=`` only
    punctuation, so a test on such a text needs no test on the kind.
    """

    def __init__(self, tokens: Tokens):
        self.n = len(tokens)
        self.kinds = tokens.kinds + [""] * _PAD
        self.texts = tokens.texts + [""] * _PAD
        self.starts = tokens.starts
        self.span = tokens.span
        self.partner = self.match_brackets()
        self.pos = 0
        self.package = ""

    def match_brackets(self) -> list[int]:
        """Index of each bracket's partner; other entries are unused.

        Raises UnbalancedBraces at the first closer with no partner or of
        the wrong kind, or at the first opener that never closes.
        """
        texts = self.texts
        partner = [0] * self.n
        stack: list[int] = []
        for i in compress(count(), map(_BRACKETS.__contains__, texts)):
            text = texts[i]
            if text in _OPENERS:
                stack.append(i)
            elif not stack or _PARTNER[texts[stack[-1]]] != text:
                raise UnbalancedBraces(self.span(i, i))
            else:
                j = stack.pop()
                partner[i] = j
                partner[j] = i
        if stack:
            raise UnbalancedBraces(self.span(stack[0], stack[0]))
        return partner

    # -- cursor primitives -------------------------------------------------

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def at_identifier(self) -> bool:
        return self.kinds[self.pos] == KIND_IDENTIFIER

    def accept(self, text: str) -> bool:
        """Consume the token at the cursor if it is ``text``."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    # -- skipping helpers ----------------------------------------------------

    def skip_group(self) -> None:
        """Jump past the group opened at the cursor."""
        self.pos = self.partner[self.pos] + 1

    def skip_until(self, stops) -> None:
        """Walk to the first token in ``stops`` or closer, jumping over groups."""
        texts, partner, n = self.texts, self.partner, self.n
        i = self.pos
        while i < n:
            text = texts[i]
            if text in stops or text in _CLOSERS:
                break
            if text in _OPENERS:
                i = partner[i]
            i += 1
        self.pos = i

    def skip_declaration(self) -> None:
        """Drop a declaration up to its ``;`` or its ``{...}`` body."""
        self.skip_until(("{", ";"))
        if self.at("{"):
            self.skip_group()
        self.accept(";")

    def take_generics(self) -> bool:
        """Consume a ``<...>`` group, ``>>`` and ``>>>`` closing 2 and 3
        levels, and return whether it closed. ``(...)`` and ``[...]`` inside
        are jumped; ``;``, ``=``, ``{``, a closer or the end of the tokens
        (no type argument holds one) ends the scan unclosed."""
        texts = self.texts
        depth = 0
        while True:
            text = texts[self.pos]
            if text == "<":
                depth += 1
            elif text in _ANGLE_CLOSES:
                depth -= _ANGLE_CLOSES[text]
            elif text in (";", "=", "{", "") or text in _CLOSERS:
                return False
            elif text in _OPENERS:
                self.pos = self.partner[self.pos]
            self.pos += 1
            if depth <= 0:
                return True

    # -- declarations ----------------------------------------------------------

    def collect_modifiers(self) -> int:
        """Consume modifiers, the unknown ones too (see the module
        docstring), annotations and type parameters; return the index
        where they began. Stops at ``@interface``.

        ``non-sealed`` is three tokens with no characters between them. An
        annotation before ``[`` or ``...`` (three ``.`` tokens) annotates
        the array type written before it (``String @A [] names``), so
        that type is no modifier.
        """
        texts, kinds = self.texts, self.kinds
        start = self.pos
        while True:
            pos = self.pos = self.past_annotations(self.pos)
            text = texts[pos]
            if text in _MODIFIERS:
                self.pos += 1
            elif text == "<":
                # Type parameters of a generic method declaration.
                self.take_generics()
            elif kinds[pos] != KIND_IDENTIFIER:
                return start
            else:
                width = 3 if (texts[pos:pos + 3] == ["non", "-", "sealed"]
                              and self.starts[pos + 2] == self.starts[pos] + 4) else 1
                after = pos + width
                if not (kinds[after] == KIND_KEYWORD or self.at_type_declaration(width) or (
                        texts[after] == "@"
                        and texts[self.past_annotations(after)] not in ("[", "."))):
                    return start
                self.pos = after

    def past_annotations(self, i: int) -> int:
        """Index of the first token past the annotations from ``texts[i]``
        on, each ``@a.B`` or ``@a.B(...)``; ``@interface`` is none."""
        texts, kinds = self.texts, self.kinds
        while texts[i] == "@" and kinds[i + 1] == KIND_IDENTIFIER:
            i += 2
            while texts[i] == "." and kinds[i + 1] == KIND_IDENTIFIER:
                i += 2
            if texts[i] == "(":
                i = self.partner[i] + 1
        return i

    def at_type_declaration(self, k: int = 0) -> bool:
        """Whether the token ``k`` past the cursor starts a type declaration:
        ``class``, ``interface``, or ``record Name(`` / ``record Name<``."""
        pos, texts, kinds = self.pos + k, self.texts, self.kinds
        if kinds[pos] == KIND_KEYWORD:
            return texts[pos] in ("class", "interface")
        return (
            texts[pos] == "record"
            and kinds[pos] == KIND_IDENTIFIER
            and kinds[pos + 1] == KIND_IDENTIFIER
            and texts[pos + 2] in ("(", "<")
        )

    def read_type_ref(self) -> str | None:
        """Read a type ``a.b.C`` whole, with its names joined: constructor
        type arguments before it (``new <T>C()``), annotations before any
        name (``@A a.@B C``), type arguments after any (``Outer<T>.Inner``)
        and array suffixes are skipped. None when no name follows the
        type arguments and annotations, which are read anyway."""
        texts, kinds = self.texts, self.kinds
        if self.at("<"):
            self.take_generics()
        self.pos = pos = self.past_annotations(self.pos)
        parts = []
        while kinds[pos] == KIND_IDENTIFIER:
            parts.append(texts[pos])
            self.pos = pos + 1
            if self.at("<"):
                self.take_generics()
            if not self.at("."):
                break
            pos = self.past_annotations(self.pos + 1)
        self.skip_dims()
        return ".".join(parts) or None

    def skip_dims(self) -> None:
        """Step over the ``[]`` pairs at the cursor, each after any
        annotations (``@A [] @B []``)."""
        texts = self.texts
        while texts[self.pos] in ("[", "@"):
            i = self.past_annotations(self.pos)
            if texts[i] != "[" or texts[i + 1] != "]":
                return
            self.pos = i + 2

    def parse_class(self, prefix: str, start: int, out: list[ClassDecl]) -> tuple:
        """Read the header of the type at the cursor, modifiers from
        ``start`` on, append its ``ClassDecl`` to ``out`` and return its
        body's frame: the prefix of the names nested in it, the index of
        its ``}``, its fields (record components first) and methods, the
        ``ClassDecl``, and for a record the name and ``has_params`` of its
        compact constructor. The cursor is left in the body.
        """
        texts = self.texts
        kw = self.pos  # "class", "interface" or "record"
        self.pos += 1
        if not self.at_identifier():
            raise MissingClassName(self.span(kw, kw))
        simple_name = texts[self.pos]
        self.pos += 1
        name = prefix + simple_name
        if self.at("<"):
            self.take_generics()
        fields: list[FieldDecl] = []
        compact = None  # (name, has_params) of a record's compact constructor
        if texts[kw] == "record" and self.at("("):
            # Each component ``T a`` is a field, its head read as a member's.
            close = self.partner[self.pos]
            compact = (simple_name, close > self.pos + 1)
            self.pos += 1
            while self.pos < close:
                self.collect_modifiers()
                head = self.pos
                self.declarator(head, self.walk_head(), fields)
                self.skip_until((",",))
                self.accept(",")
            self.pos = close + 1

        # The first name after ``extends`` or ``implements``; the rest of
        # each list, type arguments included, is walked past.
        extends = implements = None
        while True:
            self.skip_until(("{", "<", "extends", "implements"))
            if self.at("<"):
                self.take_generics()
            elif self.accept("extends"):
                extends = extends or self.read_type_ref()
            elif self.accept("implements"):
                implements = implements or self.read_type_ref()
            else:
                break
        if not self.at("{"):
            # The header ran into the closer of its group or end of file.
            raise MissingClassBody(self.span(kw, kw), simple_name)
        close = self.partner[self.pos]
        self.pos += 1
        # The package is set at the body's ``}``, by ``parse_members``.
        decl = ClassDecl(name, "", extends or implements, fields, [], self.span(start, close))
        out.append(decl)
        return name + ".", close, fields, decl.methods, decl, compact

    def parse_members(self, close: int) -> tuple[list[ClassDecl], list[tuple]]:
        """Read the declarations from the cursor up to ``close``; return
        the classes, each followed by the types nested in it, and their
        code in source order.

        One loop reads every level from a stack of open bodies. The level
        at the bottom (the unit's top level, or a class body in code) ends
        at ``close`` and drops the fields and methods it finds. A type
        declaration pushes the frame of its body, which is popped at its
        ``}``; the class's package is the one in force there. The code is
        one ``(class, method, lo, hi)`` per method body, initializer block
        or field initializer ``texts[lo:hi]``, with ``class`` None at the
        bottom level and ``method`` None for a block or an initializer.
        """
        texts = self.texts
        classes: list[ClassDecl] = []
        code: list[tuple] = []
        stack = [("", close, [], [], None, None)]
        while stack:
            prefix, close, fields, methods, decl, compact = stack[-1]
            while self.pos < close:
                text = texts[self.pos]
                if text == ";":
                    self.pos += 1
                elif text in ("package", "import"):
                    self.pos += 1
                    if text == "package":
                        self.package = self.read_type_ref() or ""
                    self.skip_until((";",))
                    self.accept(";")
                else:
                    start = self.collect_modifiers()
                    text = texts[self.pos]
                    if text in ("@", "enum"):
                        self.skip_declaration()
                    elif text in _TYPE_WORDS and self.at_type_declaration():
                        stack.append(self.parse_class(prefix, start, classes))
                        break
                    elif text == "{":
                        # An initializer block, or a block after a stray word.
                        code.append((decl, None, self.pos + 1, self.partner[self.pos]))
                        self.skip_group()
                    elif compact and text == compact[0] and texts[self.pos + 1] == "{":
                        # A record's compact constructor: ``P { check(x); }``.
                        method = MethodDecl(text, compact[1], "", set(), set(), [])
                        methods.append(method)
                        code.append((decl, method, self.pos + 2, self.partner[self.pos + 1]))
                        self.pos = self.partner[self.pos + 1] + 1
                    else:
                        self.parse_member(decl, fields, methods, code)
            else:
                stack.pop()
                if decl is not None:
                    self.pos = close + 1
                    decl.package_name = self.package
        return classes, code

    def walk_head(self) -> int:
        """Walk the cursor to the first of ``_HEAD_ENDS`` past a head
        (modifiers stripped) and return its index. ``<...>`` groups and
        annotations are jumped: a type annotation's ``(``, as in
        ``String @A(1, 2) []``, opens no parameter list."""
        texts = self.texts
        while (text := texts[self.pos]) not in _HEAD_ENDS:
            if text == "<":
                self.take_generics()
            elif text == "@" and self.kinds[self.pos + 1] == KIND_IDENTIFIER:
                self.pos = self.past_annotations(self.pos)
            else:
                self.pos += 1
        return self.pos

    def parse_member(self, decl, fields, methods, code) -> None:
        """Parse one field or method declaration after its modifiers; its
        head is ``texts[head:end]`` (see ``walk_head``)."""
        head = self.pos
        end = self.walk_head()
        text = self.texts[end]
        if text == "}":
            return
        if text == "(":
            self.finish_method(decl, head, end, methods, code)
        elif text == "{":
            # A stray block after tokens we did not understand.
            self.skip_group()
        else:
            self.finish_fields(decl, head, end, fields, code)

    def finish_method(self, decl, head: int, end: int, methods, code) -> None:
        name = end - 1
        if name < head or self.kinds[name] != KIND_IDENTIFIER:
            # Not a method declaration we model; drop the paren group.
            self.skip_group()
            if self.at("{"):
                self.skip_group()
            else:
                self.accept(";")
            return
        method = MethodDecl(
            name=self.texts[name],
            has_params=self.partner[end] > end + 1,
            return_type="".join(self.texts[head:name]),
            reads_fields=set(),
            writes_fields=set(),
            call_sites=[],
        )
        methods.append(method)
        self.skip_group()
        self.skip_until(("{", ";"))  # throws clause and anything else before the body
        if self.at("{"):
            code.append((decl, method, self.pos + 1, self.partner[self.pos]))
        self.skip_declaration()

    def declarator(self, head: int, end: int, fields: list[FieldDecl]) -> str | None:
        """Add the field that the declarator ``texts[head:end]`` declares and
        return the type before its name, leaving the cursor at ``end``. The
        name is the one identifier after a type that only dims follow
        (``skip_dims``), and the field's type is the head without the name
        (``int c @A [][]`` is ``c: int@A[][]``). An identifier after ``@``,
        or after a ``.`` that ends no ``...``, names a type or an annotation.
        None, and no field, when there is no name. The identifiers are tried
        from the last, where the name usually is."""
        texts, kinds = self.texts, self.kinds
        for name in range(end - 1, head, -1):
            before = texts[name - 1]
            if kinds[name] == KIND_IDENTIFIER and before != "@" and (
                    before != "." or texts[name - 2] == "."):
                self.pos = name + 1
                if self.pos < end:
                    self.skip_dims()
                if self.pos == end:
                    fields.append(FieldDecl(
                        texts[name], "".join(texts[head:name] + texts[name + 1:end])))
                    return "".join(texts[head:name])
        self.pos = end
        return None

    def finish_fields(self, decl, head: int, end: int, fields: list[FieldDecl], code) -> None:
        """Parse ``type a = init, b[], c @A [];`` declarator lists; the
        tokens after each declarator (``= init``) are code. A later
        declarator's type is the first one's without its dims, with its own."""
        texts = self.texts
        base = self.declarator(head, end, fields)
        if base is None:
            self.skip_until((";",))
            self.accept(";")
            return
        # Initializers are skipped up to the next top-level ``,`` or
        # ``;``. A ``<`` whose group closes opens type arguments, jumped
        # whole; any other ``<`` is a comparison.
        lo = end
        while True:
            self.skip_until((",", ";", "<"))
            if self.at("<"):
                less = self.pos
                if not self.take_generics():
                    self.pos = less + 1
                continue
            if self.pos > lo:
                code.append((decl, None, lo, self.pos))
            if not self.accept(","):
                break
            if self.at_identifier():
                name = self.pos
                self.pos += 1
                self.skip_dims()
                fields.append(FieldDecl(texts[name], base + "".join(texts[name + 1:self.pos])))
            lo = self.pos
        self.accept(";")

    # -- method bodies -----------------------------------------------------------

    def scan_body(self, lo: int, hi: int, fields, method: MethodDecl) -> None:
        """Add the field accesses and call sites of the code ``texts[lo:hi]``.

        The code is read forward only. An annotation (``@A``,
        ``@a.b.A(...)``) is jumped whole by ``past_annotations``, its
        arguments too, so it reads, writes and calls nothing. A call site
        is an identifier directly before ``(``. The type after ``new`` is
        read whole, so ``new a.B<C>(...)`` calls nothing, and so is the type
        after ``instanceof``, and after ``case`` when a binding name or
        ``(`` follows it (a constant label, ``case MAX:``, is code): the
        scan resumes past it, and past the ``(`` group, a record pattern,
        when there is one. A class
        body in the code, after ``new T(...)`` or in a local type
        declaration, is read by ``parse_members`` (see ``code_after``), and
        only the code it hands back is scanned, so no member head is read
        as a call; its calls count for ``method``. The ranges still to scan
        are kept on one stack, the next in source order on top.

        The receiver is ``named`` for an ``x.m(...)`` pattern with an
        identifier receiver, ``implicit-this`` for bare and ``this.`` calls,
        and ``other`` for anything else (chained or indexed expressions,
        ``super.`` calls). At a ``.`` before ``<``, ``take_generics`` reads
        the explicit type arguments; when they close before a name and its
        ``(`` (``List.<K, V>of()``), that is a call on the receiver before
        the ``.``, and the scan goes on past the ``(``.

        A field write is a field name directly followed by an assignment
        operator, ``++`` or ``--`` (``x += 1``, ``this.x++``), or directly
        after ``++`` or ``--`` (``--x``; not ``++this.x``, which neither
        writes nor reads). A field read is any other occurrence of the
        name neither after a dot nor before ``(``, where it is a call
        (``size()`` reads no field ``size``), nor a type (``names_type``):
        before a declared name (``Point p;``, ``Point[] p``), in a cast
        (``(Point) o``) or as a type argument (``List<Point> p``). The code
        lies inside a group, whose brackets keep every neighbour looked at
        inside the unit.
        """
        texts, kinds = self.texts, self.kinds
        reads, writes, calls = method.reads_fields, method.writes_fields, method.call_sites
        ranges = [(lo, hi)]
        while ranges:
            i, hi = ranges.pop()
            while i < hi:
                text = texts[i]
                if text == "(":
                    if kinds[i - 1] == KIND_IDENTIFIER:
                        calls.append(self.call_site(i - 1, i - 2))
                elif text == "@" and kinds[i + 1] == KIND_IDENTIFIER:
                    i = self.past_annotations(i)
                    continue
                elif text == "." and texts[i + 1] == "<":
                    self.pos = i + 1
                    if self.take_generics():
                        name = self.pos
                        if kinds[name] == KIND_IDENTIFIER and texts[name + 1] == "(":
                            calls.append(self.call_site(name, i))
                            i = name + 2
                            continue
                elif text in _BODY_WORDS and (after := self.code_after(i, hi)):
                    ranges += reversed(after)
                    break
                elif text in fields and kinds[i] == KIND_IDENTIFIER:
                    if texts[i + 1] in _WRITES_AFTER or texts[i - 1] in _STEPS:
                        writes.add(text)
                    elif texts[i - 1] != "." and texts[i + 1] != "(" and not self.names_type(i):
                        reads.add(text)
                elif text in ("instanceof", "case"):
                    self.pos = i + 1
                    if self.read_type_ref() and (text == "instanceof" or self.at("(")
                                                 or self.at_identifier()):
                        # A record pattern, ``case Line(Point p, var q)``, calls nothing.
                        i = self.partner[self.pos] + 1 if self.at("(") else self.pos
                        continue
                i += 1

    def names_type(self, i: int) -> bool:
        """Whether the name ``texts[i]`` in code is a type, read whole by
        ``read_type_ref``: before a declared name (``Point[] p``,
        ``Point<T> p``, ``Point.Inner p``), in a cast before an identifier
        (``(Point) o``, but not ``if (Point) run();``), or as a type
        argument before ``,`` or ``>`` after a ``<`` whose group closes
        (``take_generics``) before a declared name (``List<Point> p``)."""
        texts = self.texts
        self.pos = i
        self.read_type_ref()
        if texts[i - 1] == "<":
            if not (self.at(",") or texts[self.pos] in _ANGLE_CLOSES):
                return False
            self.pos = i - 1
            return self.take_generics() and self.at_identifier()
        if texts[i - 1] == "(" and texts[i - 2] not in ("if", "while") and self.at(")"):
            self.pos += 1
        return self.at_identifier()

    def code_after(self, i: int, hi: int) -> list[tuple[int, int]] | None:
        """The ranges of code from ``texts[i]`` up to ``hi``, in source
        order, when ``texts[i]`` is ``new`` or starts a local type
        declaration; None when it is neither (``Foo.class``).

        ``new`` skips its type, and the ``(`` after it; the class body of
        ``new T(...) { ... }`` or of the declaration is read by
        ``parse_members``, whose classes are dropped, and is replaced by
        the code that it hands back. An ``enum`` is skipped whole there.
        """
        texts, partner = self.texts, self.partner
        if texts[i] == "new":
            self.pos = i + 1
            self.read_type_ref()
            args = self.pos
            if texts[args] != "(":
                return [(args, hi)]
            if texts[partner[args] + 1] != "{":
                return [(args + 1, hi)]
            head = [(args + 1, partner[args])]
            self.pos = partner[args] + 2
            close = end = partner[self.pos - 1]
        else:
            self.pos = i
            if texts[i - 1] == "." or not (texts[i] == "enum" or self.at_type_declaration()):
                return None
            self.skip_until(("{",))
            if not self.at("{"):
                return None
            head = []
            end = partner[self.pos]
            close = end + 1
            self.pos = i
        _, code = self.parse_members(close)
        return head + [(lo, hi) for _, _, lo, hi in code] + [(end + 1, hi)]

    def call_site(self, name: int, dot: int) -> CallSite:
        """The call of ``texts[name]``, on the receiver before ``texts[dot]``
        when that is a ``.``."""
        texts = self.texts
        receiver_kind = RECEIVER_THIS
        receiver_name = None
        if texts[dot] == ".":
            owner = dot - 1
            if self.kinds[owner] == KIND_IDENTIFIER:
                receiver_kind = RECEIVER_NAMED
                receiver_name = texts[owner]
            elif texts[owner] != "this":
                receiver_kind = RECEIVER_OTHER
        return CallSite(texts[name], receiver_kind, receiver_name)


def parse_unit(tokens: Tokens) -> list[ClassDecl]:
    """Extract class declarations from one file's token table.

    Outer classes precede their nested classes in the returned list.
    """
    parser = _Parser(tokens)
    classes, code = parser.parse_members(parser.n)
    for decl, method, lo, hi in code:
        if decl is not None and method is not None:
            parser.scan_body(lo, hi, {f.name for f in decl.fields}, method)
    return classes


def parse_corpus(root) -> CorpusParse:
    """Parse every ``*.java`` file under ``root``.

    Files are visited in byte order of their corpus-relative posix
    paths (``os.fsencode``, so a name that is not valid UTF-8 sorts by
    its raw bytes), so the result does not depend on filesystem
    enumeration order. Symlinked files are read, symlinked directories
    are not entered, and anything that is not a regular file (a broken
    link, a directory named ``X.java``) is skipped. Files that fail to
    read, tokenize or parse, and directories that cannot be listed, are
    reported in ``failures`` (in the same byte order) and excluded; an
    empty corpus is a warning, not an error.
    """
    if not os.path.isdir(root):
        raise RootNotFound(str(root))
    root = os.fspath(root)
    strip = len(os.path.join(root, ""))
    failures: list[tuple[str, str]] = []
    paths = []
    # Directories still to list. ``is_dir(follow_symlinks=False)`` holds
    # for a real directory alone, and ``is_file()`` follows a link.
    tops = [root]
    while tops:
        top = tops.pop()
        try:
            with os.scandir(top) as listing:
                entries = list(listing)
        except OSError as exc:
            failures.append((exc.filename[strip:] or ".", f"{type(exc).__name__}: {exc}"))
            continue
        for entry in entries:
            try:
                if entry.is_dir(follow_symlinks=False):
                    tops.append(entry.path)
                elif entry.name.endswith(".java") and entry.is_file():
                    paths.append(entry.path)
            except OSError:
                # A link loop, or a target that cannot be looked at.
                pass
    paths.sort(key=os.fsencode)

    units: list[CorpusUnit] = []
    for path in paths:
        rel = path[strip:]
        try:
            # Unbuffered: the whole file is one read, which needs no buffer.
            with open(path, "rb", 0) as f:
                data = f.read()
            units.append(CorpusUnit(rel, parse_unit(tokenize(data, rel))))
        except (CodeforestError, OSError) as exc:
            failures.append((rel, f"{type(exc).__name__}: {exc}"))

    failures.sort(key=lambda failure: os.fsencode(failure[0]))
    warnings = [] if paths else [f"no .java files under {root}"]
    return CorpusParse(units, failures, warnings)
