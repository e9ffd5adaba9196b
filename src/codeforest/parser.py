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

Everything else (imports, annotations, generics, enum bodies, code the
subset does not model) is consumed and dropped. The parser never guesses
across brace boundaries: bodies are delimited by balanced-brace scans,
so a file that fails to balance raises instead of producing a skewed
model.

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

# Words that never open a method call even when directly followed by a
# parenthesis; "new" additionally suppresses the constructor name after it.
_CALL_BLOCKING_KEYWORDS = frozenset(
    ("new", "if", "for", "while", "switch", "catch", "synchronized", "return")
)

# First words of a class, interface or record declaration.
_TYPE_WORDS = frozenset(("class", "interface", "record"))

_OPENERS = frozenset(("(", "[", "{"))
_CLOSERS = frozenset((")", "]", "}"))


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
class BodyScan:
    reads_fields: set[str]
    writes_fields: set[str]
    call_sites: list[CallSite]
    loc: int


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


def scan_method_body(tokens: list[Token], field_names) -> BodyScan:
    """Scan a brace-delimited method body for field access and calls.

    ``tokens`` is the slice covering the body including both braces;
    trivia tokens are ignored if present. ``loc`` is the physical line
    span of the slice.

    A call site fires for each identifier directly followed by ``(``
    unless the preceding token is one of the call-blocking keywords
    (``new Foo(...)`` is a construction, not a call). The receiver is
    ``named`` for an ``x.m(...)`` pattern with an identifier receiver,
    ``implicit-this`` for bare and ``this.`` calls, ``other`` for
    anything else (chained or indexed expressions, ``super.`` calls).

    A field write is a field name directly followed by an assignment
    operator; a field read is any other occurrence of the name not
    preceded by a dot.
    """
    fields = set(field_names)
    sig = [t for t in tokens if t.kind not in TRIVIA_KINDS]
    reads: set[str] = set()
    writes: set[str] = set()
    calls: list[CallSite] = []

    for idx, tok in enumerate(sig):
        if tok.kind == KIND_PUNCTUATION and tok.text == "(" and idx > 0:
            name_tok = sig[idx - 1]
            if name_tok.kind != KIND_IDENTIFIER:
                continue
            before = sig[idx - 2] if idx >= 2 else None
            if (
                before is not None
                and before.kind == KIND_KEYWORD
                and before.text in _CALL_BLOCKING_KEYWORDS
            ):
                continue
            calls.append(_call_site(sig, idx, name_tok, before))
        elif tok.kind == KIND_IDENTIFIER and tok.text in fields:
            nxt = sig[idx + 1] if idx + 1 < len(sig) else None
            prv = sig[idx - 1] if idx > 0 else None
            if (
                nxt is not None
                and nxt.kind == KIND_PUNCTUATION
                and nxt.text in ASSIGNMENT_OPERATORS
            ):
                writes.add(tok.text)
            elif prv is None or prv.text != ".":
                reads.add(tok.text)

    if tokens:
        loc = tokens[-1].span.line_end - tokens[0].span.line_start + 1
    else:
        loc = 0
    return BodyScan(reads, writes, calls, loc)


def _call_site(sig: list[Token], paren_idx: int, name_tok: Token, before) -> CallSite:
    receiver_kind = RECEIVER_THIS
    receiver_name = None
    if before is not None and before.text == ".":
        owner = sig[paren_idx - 3] if paren_idx >= 3 else None
        if owner is not None and owner.kind == KIND_IDENTIFIER:
            receiver_kind = RECEIVER_NAMED
            receiver_name = owner.text
        elif owner is not None and owner.kind == KIND_KEYWORD and owner.text == "this":
            receiver_kind = RECEIVER_THIS
        else:
            receiver_kind = RECEIVER_OTHER

    hint, close = _count_items(sig, paren_idx)
    end_span = sig[close].span if close < len(sig) else sig[paren_idx].span
    return CallSite(
        name_tok.text,
        receiver_kind,
        receiver_name,
        hint,
        _join(name_tok.span, end_span),
    )


def _count_items(sig: list[Token], open_idx: int) -> tuple[int, int]:
    """Count the top-level items of the group opened at ``sig[open_idx]``.

    Returns the item count (top-level commas plus one, 0 for an empty
    group) and the index of the closing token, or ``len(sig)`` when the
    group never closes.
    """
    depth = 1
    commas = 0
    saw_item = False
    j = open_idx + 1
    while j < len(sig):
        text = sig[j].text
        if text in _OPENERS:
            depth += 1
            saw_item = True
        elif text in _CLOSERS:
            depth -= 1
            if depth == 0:
                break
            saw_item = True
        elif text == "," and depth == 1:
            commas += 1
        else:
            saw_item = True
        j += 1
    return (commas + 1 if saw_item or commas else 0), j


class _Parser:
    """Cursor over the significant tokens of one compilation unit."""

    def __init__(self, sig: list[Token]):
        self.sig = sig
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

    def done(self) -> bool:
        return self.pos >= len(self.sig)

    # -- skipping helpers ----------------------------------------------------

    def skip_to_semicolon(self) -> None:
        while not self.done():
            if self.take().text == ";":
                return

    def skip_balanced(self, opener: str, closer: str) -> Token:
        """Consume an already-peeked ``opener`` block; return the closer."""
        start = self.take()
        depth = 1
        while not self.done():
            t = self.take()
            if t.text == opener:
                depth += 1
            elif t.text == closer:
                depth -= 1
                if depth == 0:
                    return t
        raise UnbalancedBraces(start.span)

    def take_generics(self) -> list[Token]:
        """Consume a ``<...>`` group; ``>>`` and ``>>>`` close 2 and 3 levels.

        Returns the consumed tokens, so skipping a group is ignoring them.
        """
        start = self.pos
        depth = 0
        while not self.done():
            t = self.peek()
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text == ">>>":
                depth -= 3
            elif t.text in (";", "{", "}") or depth <= 0:
                break
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
            if t.kind == KIND_KEYWORD and t.text == "package":
                self.take()
                package = self.read_type_ref() or ""
                self.skip_to_semicolon()
                continue
            if t.kind == KIND_KEYWORD and t.text == "import":
                self.take()
                self.skip_to_semicolon()
                continue
            start_tok, is_abstract, is_annotation_decl = self.collect_modifiers()
            t = self.peek()
            if t is None:
                break
            if is_annotation_decl or (t.kind == KIND_KEYWORD and t.text == "enum"):
                self.skip_unknown_declaration()
                continue
            if t.text in _TYPE_WORDS and self.at_type_declaration():
                self.parse_class(package, "", start_tok, is_abstract, out)
                continue
            # Not a declaration this subset models: drop one token, or a
            # whole block so we never descend into foreign braces.
            if t.text == "{":
                self.skip_balanced("{", "}")
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
                    self.skip_balanced("(", ")")
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

    def skip_unknown_declaration(self) -> None:
        """Drop an enum or annotation-type declaration wholesale."""
        while not self.done():
            t = self.peek()
            if t.text == "{":
                self.skip_balanced("{", "}")
                if self.at(";"):
                    self.take()
                return
            if t.text == ";":
                self.take()
                return
            self.take()

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
        name = prefix + self.take().text
        if self.at("<"):
            self.take_generics()
        fields: list[FieldDecl] = []
        if kw.text == "record" and self.at("("):
            self.read_record_components(fields)

        extends_names: list[str] = []
        implements_names: list[str] = []
        while not self.done() and not self.at("{"):
            t = self.peek()
            if t.kind == KIND_KEYWORD and t.text == "extends":
                self.take()
                extends_names.extend(self.read_type_ref_list())
            elif t.kind == KIND_KEYWORD and t.text == "implements":
                self.take()
                implements_names.extend(self.read_type_ref_list())
            else:
                self.take()
        if self.done():
            raise UnbalancedBraces(kw.span)

        if extends_names:
            super_name = extends_names[0]
        elif implements_names:
            super_name = implements_names[0]
        else:
            super_name = None

        open_brace = self.take()
        pending: list[dict] = []
        nested: list[ClassDecl] = []
        close = self.parse_members(package, name, open_brace, fields, pending, nested)

        methods = []
        field_names = [f.name for f in fields]
        for rec in pending:
            body = rec.pop("body_tokens")
            if body is None:
                scan = BodyScan(set(), set(), [], 0)
                body_span = None
            else:
                scan = scan_method_body(body, field_names)
                body_span = _join(body[0].span, body[-1].span)
            methods.append(
                MethodDecl(
                    name=rec["name"],
                    param_count=rec["param_count"],
                    return_type=rec["return_type"],
                    span=rec["span"],
                    body_span=body_span,
                    loc=rec["loc"],
                    reads_fields=scan.reads_fields,
                    writes_fields=scan.writes_fields,
                    call_sites=scan.call_sites,
                )
            )

        out.append(
            ClassDecl(
                name=name,
                package_name=package,
                super_name=super_name,
                is_interface=is_interface,
                is_abstract=is_abstract,
                fields=fields,
                methods=methods,
                span=_join(start_tok.span, close.span),
            )
        )
        out.extend(nested)

    def read_record_components(self, fields: list[FieldDecl]) -> None:
        """Consume a record header ``(T a, U b)``; each component is a field."""
        open_paren = self.take()
        while not self.at(")"):
            if self.done():
                raise UnbalancedBraces(open_paren.span)
            start_tok, _, _ = self.collect_modifiers()
            head: list[Token] = []
            while not self.done() and not (self.at(",") or self.at(")")):
                if self.at("<"):
                    head.extend(self.take_generics())
                else:
                    head.append(self.take())
            if len(head) >= 2 and head[-1].kind == KIND_IDENTIFIER:
                fields.append(
                    FieldDecl(head[-1].text, _compact(head[:-1]),
                              _join((start_tok or head[0]).span, head[-1].span))
                )
            if self.at(","):
                self.take()
        self.take()

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
        open_brace: Token,
        fields: list[FieldDecl],
        pending: list[dict],
        nested: list[ClassDecl],
    ) -> Token:
        """Parse member declarations until the class's closing brace.

        Method bodies are collected raw and scanned by the caller once
        the class's full field list is known (fields may be declared
        after the methods that use them).
        """
        while True:
            if self.done():
                raise UnbalancedBraces(open_brace.span)
            if self.at("}"):
                return self.take()
            if self.at(";"):
                self.take()
                continue

            start_tok, is_abstract, is_annotation_decl = self.collect_modifiers()
            t = self.peek()
            if t is None:
                raise UnbalancedBraces(open_brace.span)
            if is_annotation_decl or (t.kind == KIND_KEYWORD and t.text == "enum"):
                self.skip_unknown_declaration()
                continue
            if t.text in _TYPE_WORDS and self.at_type_declaration():
                self.parse_class(package, class_name + ".", start_tok, is_abstract, nested)
                continue
            if t.text == "{":
                # Instance or static initializer block.
                self.skip_balanced("{", "}")
                continue
            if t.text == "}":
                continue
            self.parse_member(start_tok, fields, pending)

    def parse_member(
        self, start_tok: Token | None, fields: list[FieldDecl], pending: list[dict]
    ) -> None:
        """Parse one field or method declaration after its modifiers."""
        head: list[Token] = []
        while not self.done():
            t = self.peek()
            if t.text in ("(", "=", ";", ",", "{", "}"):
                break
            if t.text == "<":
                head.extend(self.take_generics())
                continue
            head.append(self.take())
        if self.done() or self.at("}"):
            return
        start_tok = start_tok or (head[0] if head else self.peek())

        t = self.peek()
        if t.text == "(":
            self.finish_method(start_tok, head, pending)
        elif t.text == "{":
            # A stray block after tokens we did not understand.
            self.skip_balanced("{", "}")
        else:
            self.finish_fields(start_tok, head, fields)

    def finish_method(
        self, start_tok: Token, head: list[Token], pending: list[dict]
    ) -> None:
        if not head or head[-1].kind != KIND_IDENTIFIER:
            # Not a method declaration we model; drop the paren group.
            self.skip_balanced("(", ")")
            if self.at("{"):
                self.skip_balanced("{", "}")
            elif self.at(";"):
                self.take()
            return
        name = head[-1].text
        return_type = _compact(head[:-1])
        param_count = self.read_param_count()

        while not self.done() and not (self.at("{") or self.at(";") or self.at("}")):
            self.take()  # throws clause and anything else before the body
        body_tokens = None
        if self.at("{"):
            body_start = self.pos
            close = self.skip_balanced("{", "}")
            body_tokens = self.sig[body_start:self.pos]
            end_span = close.span
        elif self.at(";"):
            end_span = self.take().span
        else:
            end_span = head[-1].span

        span = _join(start_tok.span, end_span)
        pending.append(
            {
                "name": name,
                "param_count": param_count,
                "return_type": return_type,
                "span": span,
                "loc": span.line_end - span.line_start + 1,
                "body_tokens": body_tokens,
            }
        )

    def read_param_count(self) -> int:
        """Consume a balanced parameter list, counting top-level commas."""
        count, close = _count_items(self.sig, self.pos)
        self.pos = min(close + 1, len(self.sig))
        return count

    def finish_fields(
        self, start_tok: Token, head: list[Token], fields: list[FieldDecl]
    ) -> None:
        """Parse ``type a = init, b, c;`` declarator lists."""
        if not head or head[-1].kind != KIND_IDENTIFIER or len(head) < 2:
            self.skip_to_semicolon()
            return
        declared_type = _compact(head[:-1])
        names = [head[-1]]
        while not self.done():
            t = self.take()
            if t.text == ";":
                break
            if t.text == ",":
                if self.at_kind(KIND_IDENTIFIER):
                    names.append(self.take())
                continue
            if t.text == "=":
                self.skip_initializer()
                continue
            # Array suffix on the declarator or anything unexpected.
        for name_tok in names:
            fields.append(
                FieldDecl(
                    name=name_tok.text,
                    declared_type=declared_type,
                    span=_join(start_tok.span, name_tok.span),
                )
            )

    def skip_initializer(self) -> None:
        """Consume an initializer up to a top-level ``,`` or ``;``."""
        depth = 0
        while not self.done():
            t = self.peek()
            if t.text in _OPENERS:
                depth += 1
            elif t.text in _CLOSERS:
                if depth == 0:
                    return
                depth -= 1
            elif depth == 0 and t.text in (",", ";"):
                return
            self.take()


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
