"""Declaration extractor for the supported Java subset.

The parser walks the significant tokens of one compilation unit and
pulls out the structure later stages care about:

* the package name,
* class, interface and record declarations, nested ones flattened to
  ``Outer.Inner`` names (record components become fields; ``sealed``
  and ``non-sealed`` are modifiers),
* field declarations (name plus declared type as written),
* method and constructor declarations with physical line counts,
* per-body field reads, field writes and call sites.

Method bodies are scanned once the class's field list is complete. In
a body, ``name(`` is a call site unless it is a declaration header,
that is its ``)`` is followed by ``{``, ``throws`` or ``implements``
(a method of an anonymous or local class, a local constructor or
record, an anonymous class ``new a.Foo(...) { ... }``), or the word
before ``name`` blocks it: ``new`` (a construction), ``return``, and
``void`` or a primitive type (a bodiless method of a local interface).

Everything else (imports, annotations, generics, enum bodies, code the
subset does not model) is consumed and dropped. The parser never guesses
across bracket boundaries: ``(``/``)``, ``[``/``]`` and ``{``/``}`` are
paired once per file in one bracket table (``_match_brackets``), every
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

from dataclasses import dataclass
from pathlib import Path

from .errors import (
    CodeforestError,
    MissingClassBody,
    MissingClassName,
    RootNotFound,
    UnbalancedBraces,
)
from .lexer import (
    ASSIGNMENT_OPERATORS,
    KIND_IDENTIFIER,
    KIND_KEYWORD,
    KIND_PUNCTUATION,
    TRIVIA_KINDS,
    Span,
    Token,
    tokenize,
)

RECEIVER_THIS = "implicit-this"
RECEIVER_NAMED = "named"
RECEIVER_OTHER = "other"

_MODIFIERS = frozenset(
    """public protected private static final abstract native synchronized
    transient volatile strictfp default""".split()
)

# Tokens after which ``name(`` is not a method call: ``new`` (``new
# Foo(...)`` constructs), ``return``, and ``void``, a primitive return
# type or the ``]`` of an array type, which make it a declaration even
# without a body. An identifier other than ``yield`` blocks too (see
# ``_scan_body``).
_CALL_BLOCKING_WORDS = frozenset(
    "new return void boolean byte char short int long float double ]".split()
)

# Tokens after the ``)`` of ``name(...)`` that make it a declaration
# header rather than a call.
_HEADER_ENDS = frozenset(("{", "throws", "implements"))

# First words of a class, interface or record declaration.
_TYPE_WORDS = frozenset(("class", "interface", "record"))

_PARTNER = {"(": ")", "[": "]", "{": "}"}
_OPENERS = frozenset(_PARTNER)
_CLOSERS = frozenset(_PARTNER.values())

# Tokens that end the head (modifiers stripped) of a member declaration.
_HEAD_ENDS = frozenset(("(", "=", ";", ",", "{", "}"))


@dataclass
class FieldDecl:
    name: str
    declared_type: str
    span: Span


@dataclass
class CallSite:
    callee_name: str
    receiver_kind: str  # RECEIVER_THIS, RECEIVER_NAMED or RECEIVER_OTHER
    receiver_name: str | None  # only for RECEIVER_NAMED
    arg_count_hint: int
    span: Span


@dataclass
class MethodDecl:
    name: str
    param_count: int
    return_type: str  # compact source text; "" for constructors
    span: Span
    body_span: Span | None  # None when the method has no body
    loc: int
    reads_fields: set[str]
    writes_fields: set[str]
    call_sites: list[CallSite]


@dataclass
class ClassDecl:
    name: str  # nested classes flattened as Outer.Inner
    package_name: str  # "" for the default package
    super_name: str | None
    is_interface: bool
    is_abstract: bool
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    span: Span

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]


@dataclass
class CorpusUnit:
    path: str  # corpus-relative posix path
    classes: list[ClassDecl]


@dataclass
class CorpusParse:
    units: list[CorpusUnit]
    failures: list[tuple[str, str]]  # (path, "ErrorType: detail")
    warnings: list[str]


def _join(a: Span, b: Span) -> Span:
    return Span(a.file_id, a.line_start, b.line_end, a.byte_start, b.byte_end)


def _compact(tokens: list[Token]) -> str:
    return "".join(t.text for t in tokens)


def _match_brackets(sig: list[Token]) -> list[int]:
    """Index of each bracket's partner; other entries are unused.

    Raises UnbalancedBraces at the first closer with no partner or of
    the wrong kind, or at the first opener that never closes.
    """
    partner = [0] * len(sig)
    stack: list[int] = []
    for i, tok in enumerate(sig):
        text = tok.text
        if text in _OPENERS:
            stack.append(i)
        elif text in _CLOSERS:
            if not stack or _PARTNER[sig[stack[-1]].text] != text:
                raise UnbalancedBraces(tok.span)
            j = stack.pop()
            partner[i] = j
            partner[j] = i
    if stack:
        raise UnbalancedBraces(sig[stack[0]].span)
    return partner


def _scan_body(sig, partner, body: int, fields, method: MethodDecl) -> None:
    """Add the field accesses and call sites of the body at ``sig[body]``.

    ``body`` is the index of the body's ``{``. A call site is an
    identifier directly followed by ``(``, with two exceptions:

    * the token before the identifier is ``new`` (``new Foo(...)``
      constructs) or ``return``; or it ends a return type, which makes
      ``name(`` a declaration even without a body (``void run();``,
      ``String name();`` or ``int[] arr();`` in a local interface):
      ``void``, a primitive type, ``]``, or an identifier other than
      the contextual ``yield`` (``yield compute(f);`` is a call). A
      generic return type (``List<String> all();``) still reads as a
      call, as its ``>`` may as well be a comparison;
    * the group's ``)`` is followed by ``{``, ``throws`` or
      ``implements``: a declaration header, such as a method of an
      anonymous or local class (``String toString() {``), a local
      constructor or record, or ``new a.Foo(...) { ... }``;
    * the name is an annotation's, plain or qualified: ``@`` comes
      before it, or before the ``a.b.`` that qualifies it
      (``@SuppressWarnings("u") int a;``, ``@java.lang.Deprecated()``).

    The receiver is ``named`` for an ``x.m(...)`` pattern with an
    identifier receiver, ``implicit-this`` for bare and ``this.`` calls,
    and ``other`` for anything else (chained or indexed expressions,
    ``super.`` calls).

    A field write is a field name directly followed by an assignment
    operator; a field read is any other occurrence of the name not
    preceded by a dot. The body's braces keep every neighbour looked
    at inside ``sig``.
    """
    reads, writes, calls = method.reads_fields, method.writes_fields, method.call_sites
    for idx in range(body + 1, partner[body]):
        tok = sig[idx]
        if tok.kind == KIND_PUNCTUATION and tok.text == "(":
            before = sig[idx - 2]
            if (
                sig[idx - 1].kind == KIND_IDENTIFIER
                and before.text not in _CALL_BLOCKING_WORDS
                and (before.kind != KIND_IDENTIFIER or before.text == "yield")
                and sig[partner[idx] + 1].text not in _HEADER_ENDS
                and not _names_annotation(sig, idx - 1)
            ):
                calls.append(_call_site(sig, partner, idx))
        elif tok.kind == KIND_IDENTIFIER and tok.text in fields:
            nxt = sig[idx + 1]
            if nxt.kind == KIND_PUNCTUATION and nxt.text in ASSIGNMENT_OPERATORS:
                writes.add(tok.text)
            elif sig[idx - 1].text != ".":
                reads.add(tok.text)


def _names_annotation(sig, name_idx: int) -> bool:
    """Whether ``sig[name_idx]`` ends an ``@name`` or ``@a.b.name``."""
    at = name_idx - 1
    while sig[at].text == "." and sig[at - 1].kind == KIND_IDENTIFIER:
        at -= 2
    return sig[at].text == "@"


def _call_site(sig, partner, paren_idx: int) -> CallSite:
    name_tok = sig[paren_idx - 1]
    receiver_kind = RECEIVER_THIS
    receiver_name = None
    if sig[paren_idx - 2].text == ".":
        owner = sig[paren_idx - 3]
        if owner.kind == KIND_IDENTIFIER:
            receiver_kind = RECEIVER_NAMED
            receiver_name = owner.text
        elif owner.text != "this":
            receiver_kind = RECEIVER_OTHER

    return CallSite(
        name_tok.text,
        receiver_kind,
        receiver_name,
        _count_items(sig, partner, paren_idx),
        _join(name_tok.span, sig[partner[paren_idx]].span),
    )


def _count_items(sig, partner, open_idx: int) -> int:
    """Count the top-level items of the group opened at ``sig[open_idx]``.

    That is the top-level commas plus one, or 0 for an empty group.
    """
    close = partner[open_idx]
    commas = 0
    saw_item = False
    j = open_idx + 1
    while j < close:
        text = sig[j].text
        if text == ",":
            commas += 1
        else:
            saw_item = True
            if text in _OPENERS:
                j = partner[j]
        j += 1
    return commas + 1 if saw_item or commas else 0


class _Parser:
    """Cursor over the significant tokens of one compilation unit.

    ``partner`` is the unit's bracket table. Every scan moves either one
    token at a time or from an opener past its partner, and stops at the
    closer of the group it is in, so no scan leaves the group it started
    in.
    """

    def __init__(self, sig: list[Token]):
        self.sig = sig
        self.partner = _match_brackets(sig)
        self.pos = 0

    # -- cursor primitives -------------------------------------------------

    def peek(self, k: int = 0) -> Token | None:
        i = self.pos + k
        return self.sig[i] if i < len(self.sig) else None

    def at(self, text: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t is not None and t.text == text

    def at_kind(self, kind: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t is not None and t.kind == kind

    def take(self) -> Token:
        t = self.sig[self.pos]
        self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        """Consume the token at the cursor if it is ``text``."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def done(self) -> bool:
        return self.pos >= len(self.sig)

    # -- skipping helpers ----------------------------------------------------

    def skip_group(self) -> int:
        """Jump past the group opened at the cursor; return its closer's index."""
        close = self.partner[self.pos]
        self.pos = close + 1
        return close

    def skip_until(self, stops) -> None:
        """Walk to the first token in ``stops`` or closer, jumping over groups."""
        sig, partner = self.sig, self.partner
        i = self.pos
        while i < len(sig):
            text = sig[i].text
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

    def take_generics(self) -> list[Token]:
        """Consume a ``<...>`` group; ``>>`` and ``>>>`` close 2 and 3 levels.

        ``(...)`` and ``[...]`` inside are jumped; ``;``, ``{`` or a closer
        ends the scan. Returns the consumed tokens, so skipping a group is
        ignoring them.
        """
        start = self.pos
        depth = 0
        while not self.done():
            text = self.sig[self.pos].text
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            elif text == ">>>":
                depth -= 3
            elif text in (";", "{") or text in _CLOSERS or depth <= 0:
                break
            elif text in _OPENERS:
                self.pos = self.partner[self.pos]
            self.pos += 1
            if depth <= 0:
                break
        return self.sig[start:self.pos]

    # -- declarations ----------------------------------------------------------

    def parse_unit_body(self) -> list[ClassDecl]:
        package = ""
        out: list[ClassDecl] = []
        while not self.done():
            t = self.peek()
            if t.kind == KIND_KEYWORD and t.text in ("package", "import"):
                self.take()
                if t.text == "package":
                    package = self.read_type_ref() or ""
                self.skip_until((";",))
                self.accept(";")
                continue
            start_tok, is_abstract, is_annotation_decl = self.collect_modifiers()
            t = self.peek()
            if t is None:
                break
            if is_annotation_decl or (t.kind == KIND_KEYWORD and t.text == "enum"):
                self.skip_declaration()
                continue
            if t.text in _TYPE_WORDS and self.at_type_declaration():
                self.parse_class(package, "", start_tok, is_abstract, out)
                continue
            # Not a declaration this subset models: drop one token, or a
            # whole block so we never descend into foreign braces.
            if t.text == "{":
                self.skip_group()
            else:
                self.take()
        return out

    def collect_modifiers(self):
        """Consume modifiers/annotations; flag ``@interface`` declarations."""
        start_tok: Token | None = None
        is_abstract = False
        while not self.done():
            t = self.peek()
            if t.kind == KIND_KEYWORD and t.text in _MODIFIERS:
                tok = self.take()
                start_tok = start_tok or tok
                if t.text == "abstract":
                    is_abstract = True
                continue
            if t.text in ("sealed", "non") and (width := self.sealed_modifier_width()):
                start_tok = start_tok or t
                self.pos += width
                continue
            if t.text == "@":
                if self.at_kind(KIND_KEYWORD, 1) and self.at("interface", 1):
                    return start_tok or t, is_abstract, True
                start_tok = start_tok or t
                self.take()
                self.read_type_ref()
                if self.at("("):
                    self.skip_group()
                continue
            if t.text == "<":
                # Type parameters of a generic method declaration.
                start_tok = start_tok or t
                self.take_generics()
                continue
            break
        return start_tok, is_abstract, False

    def sealed_modifier_width(self) -> int:
        """Tokens of a ``sealed`` or ``non-sealed`` modifier at the cursor, or 0.

        Both are contextual words, so they count as modifiers only when
        a keyword or an annotation follows; ``non-sealed`` must be
        written without blanks (the lexer splits it into three tokens).
        """
        t = self.peek()
        if t.kind != KIND_IDENTIFIER:
            return 0
        if t.text == "sealed":
            width = 1
        elif (
            t.text == "non"
            and self.at("-", 1)
            and self.at("sealed", 2)
            and t.span.byte_end == self.peek(1).span.byte_start
            and self.peek(1).span.byte_end == self.peek(2).span.byte_start
        ):
            width = 3
        else:
            return 0
        after = self.peek(width)
        if after is not None and (after.kind == KIND_KEYWORD or after.text == "@"):
            return width
        return 0

    def at_type_declaration(self) -> bool:
        """At ``class``, ``interface`` or ``record Name(`` / ``record Name<``."""
        t = self.peek()
        if t.kind == KIND_KEYWORD:
            return t.text in ("class", "interface")
        return (
            t.text == "record"
            and t.kind == KIND_IDENTIFIER
            and self.at_kind(KIND_IDENTIFIER, 1)
            and (self.at("(", 2) or self.at("<", 2))
        )

    def read_type_ref(self) -> str | None:
        """Read ``a.b.C`` with generics and array suffixes stripped."""
        if not self.at_kind(KIND_IDENTIFIER):
            return None
        parts = [self.take().text]
        while self.at(".") and self.at_kind(KIND_IDENTIFIER, 1):
            self.take()
            parts.append(self.take().text)
        if self.at("<"):
            self.take_generics()
        while self.at("[") and self.at("]", 1):
            self.take()
            self.take()
        return ".".join(parts)

    def parse_class(
        self,
        package: str,
        prefix: str,
        start_tok: Token | None,
        is_abstract: bool,
        out: list[ClassDecl],
    ) -> None:
        kw = self.take()  # "class", "interface" or "record"
        start_tok = start_tok or kw
        is_interface = kw.text == "interface"
        if not self.at_kind(KIND_IDENTIFIER):
            raise MissingClassName(kw.span)
        name_tok = self.take()
        name = prefix + name_tok.text
        if self.at("<"):
            self.take_generics()
        fields: list[FieldDecl] = []
        if kw.text == "record" and self.at("("):
            self.read_record_components(fields)

        extends_names: list[str] = []
        implements_names: list[str] = []
        while True:
            self.skip_until(("{", "extends", "implements"))
            if self.accept("extends"):
                extends_names.extend(self.read_type_ref_list())
            elif self.accept("implements"):
                implements_names.extend(self.read_type_ref_list())
            else:
                break
        if not self.at("{"):
            # The header ran into the closer of its group or end of file.
            raise MissingClassBody(kw.span, name_tok.text)

        if extends_names:
            super_name = extends_names[0]
        elif implements_names:
            super_name = implements_names[0]
        else:
            super_name = None

        methods: list[MethodDecl] = []
        bodies: list[tuple[MethodDecl, int]] = []
        nested: list[ClassDecl] = []
        close = self.parse_members(package, name, fields, methods, bodies, nested)

        # Fields may be declared after the methods that use them, so the
        # bodies are scanned once the class's field list is complete.
        field_names = {f.name for f in fields}
        for method, body in bodies:
            _scan_body(self.sig, self.partner, body, field_names, method)

        out.append(
            ClassDecl(
                name=name,
                package_name=package,
                super_name=super_name,
                is_interface=is_interface,
                is_abstract=is_abstract,
                fields=fields,
                methods=methods,
                span=_join(start_tok.span, self.sig[close].span),
            )
        )
        out.extend(nested)

    def read_record_components(self, fields: list[FieldDecl]) -> None:
        """Consume a record header ``(T a, U b)``; each component is a field."""
        close = self.partner[self.pos]
        self.pos += 1
        while self.pos < close:
            start_tok, _, _ = self.collect_modifiers()
            head: list[Token] = []
            while self.pos < close and not self.at(","):
                if self.at("<"):
                    head.extend(self.take_generics())
                else:
                    head.append(self.take())
            if len(head) >= 2 and head[-1].kind == KIND_IDENTIFIER:
                fields.append(
                    FieldDecl(head[-1].text, _compact(head[:-1]),
                              _join((start_tok or head[0]).span, head[-1].span))
                )
            self.accept(",")
        self.pos = close + 1

    def read_type_ref_list(self) -> list[str]:
        names = []
        ref = self.read_type_ref()
        while ref is not None:
            names.append(ref)
            if self.at(",") and self.at_kind(KIND_IDENTIFIER, 1):
                self.take()
                ref = self.read_type_ref()
            else:
                break
        return names

    def parse_members(
        self,
        package: str,
        class_name: str,
        fields: list[FieldDecl],
        methods: list[MethodDecl],
        bodies: list[tuple[MethodDecl, int]],
        nested: list[ClassDecl],
    ) -> int:
        """Parse the member declarations of the class body at the cursor.

        Returns the index of the body's closing brace and leaves the
        cursor past it. Each method with a body goes to ``bodies`` with
        the index of the body's opening brace.
        """
        close = self.partner[self.pos]
        self.pos += 1
        while self.pos < close:
            if self.accept(";"):
                continue
            start_tok, is_abstract, is_annotation_decl = self.collect_modifiers()
            t = self.sig[self.pos]
            if is_annotation_decl or (t.kind == KIND_KEYWORD and t.text == "enum"):
                self.skip_declaration()
            elif t.text in _TYPE_WORDS and self.at_type_declaration():
                self.parse_class(package, class_name + ".", start_tok, is_abstract, nested)
            elif t.text == "{":
                # Instance or static initializer block.
                self.skip_group()
            else:
                self.parse_member(start_tok, fields, methods, bodies)
        self.pos = close + 1
        return close

    def parse_member(self, start_tok: Token | None, fields, methods, bodies) -> None:
        """Parse one field or method declaration after its modifiers."""
        head: list[Token] = []
        while (t := self.sig[self.pos]).text not in _HEAD_ENDS:
            if t.text == "<":
                head.extend(self.take_generics())
            else:
                head.append(self.take())
        if t.text == "}":
            return
        start_tok = start_tok or (head[0] if head else t)
        if t.text == "(":
            self.finish_method(start_tok, head, methods, bodies)
        elif t.text == "{":
            # A stray block after tokens we did not understand.
            self.skip_group()
        else:
            self.finish_fields(start_tok, head, fields)

    def finish_method(self, start_tok: Token, head: list[Token], methods, bodies) -> None:
        if not head or head[-1].kind != KIND_IDENTIFIER:
            # Not a method declaration we model; drop the paren group.
            self.skip_group()
            if self.at("{"):
                self.skip_group()
            else:
                self.accept(";")
            return
        param_count = _count_items(self.sig, self.partner, self.pos)
        self.skip_group()
        self.skip_until(("{", ";"))  # throws clause and anything else before the body
        body = self.pos if self.at("{") else None
        if body is not None:
            end_span = self.sig[self.skip_group()].span
        elif self.at(";"):
            end_span = self.take().span
        else:
            end_span = head[-1].span
        span = _join(start_tok.span, end_span)
        method = MethodDecl(
            name=head[-1].text,
            param_count=param_count,
            return_type=_compact(head[:-1]),
            span=span,
            body_span=None if body is None else _join(self.sig[body].span, end_span),
            loc=span.line_end - span.line_start + 1,
            reads_fields=set(),
            writes_fields=set(),
            call_sites=[],
        )
        methods.append(method)
        if body is not None:
            bodies.append((method, body))

    def finish_fields(
        self, start_tok: Token, head: list[Token], fields: list[FieldDecl]
    ) -> None:
        """Parse ``type a = init, b, c;`` declarator lists."""
        if not head or head[-1].kind != KIND_IDENTIFIER or len(head) < 2:
            self.skip_until((";",))
            self.accept(";")
            return
        declared_type = _compact(head[:-1])
        names = [head[-1]]
        # Initializers and array suffixes are skipped up to the next
        # top-level ``,`` or ``;``. The type after ``new`` is read whole,
        # so the ``,`` in ``new HashMap<K, V>()`` splits no declarator.
        while True:
            self.skip_until((",", ";", "new"))
            if self.accept("new"):
                self.read_type_ref()
                continue
            if not self.accept(","):
                break
            if self.at_kind(KIND_IDENTIFIER):
                names.append(self.take())
        self.accept(";")
        for name_tok in names:
            fields.append(
                FieldDecl(
                    name=name_tok.text,
                    declared_type=declared_type,
                    span=_join(start_tok.span, name_tok.span),
                )
            )


def parse_unit(tokens: list[Token]) -> list[ClassDecl]:
    """Extract class declarations from one file's token stream.

    Outer classes precede their nested classes in the returned list.
    """
    sig = [t for t in tokens if t.kind not in TRIVIA_KINDS]
    return _Parser(sig).parse_unit_body()


def parse_corpus(root) -> CorpusParse:
    """Parse every ``*.java`` file under ``root``.

    Files are visited in byte order of their corpus-relative posix
    paths, so the result does not depend on filesystem enumeration
    order. Files that fail to tokenize or parse are reported in
    ``failures`` and excluded; an empty corpus is a warning, not an
    error.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise RootNotFound(str(root))
    rels = sorted(
        (
            p.relative_to(rootp).as_posix()
            for p in rootp.rglob("*.java")
            if p.is_file()
        ),
        key=lambda r: r.encode("utf-8"),
    )

    units: list[CorpusUnit] = []
    failures: list[tuple[str, str]] = []
    for rel in rels:
        try:
            data = (rootp / rel).read_bytes()
            units.append(CorpusUnit(rel, parse_unit(tokenize(data, rel))))
        except (CodeforestError, OSError) as exc:
            failures.append((rel, f"{type(exc).__name__}: {exc}"))

    warnings = [] if rels else [f"no .java files under {root}"]
    return CorpusParse(units, failures, warnings)
