"""Declaration extractor for the supported Java subset.

The parser walks the significant tokens of one compilation unit and
pulls out the structure later stages care about:

* the package name,
* class, interface and record declarations, nested ones flattened to
  ``Outer.Inner`` names (record components become fields),
* field declarations (name plus declared type as written),
* method and constructor declarations,
* per-body field reads, field writes and call sites.

One loop, ``parse_members``, reads the declarations of every level
alike: the unit's top level up to its end, each class body up to its
``}``. The top level drops the fields and methods it finds. One rule
covers the modifiers the subset does not know: an identifier directly
before a keyword, an annotation or a type declaration is one, and so is
``non-sealed`` written without blanks (``sealed interface``,
``non-sealed class``, ``value final class``, ``sealed @A class``). It
is dropped at every level. Two such words in a row (``sealed value
class``) are not read as modifiers, and the declaration after them is
dropped. An annotation type declaration (``@interface``) is skipped
whole, as an ``enum`` is.

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
from itertools import compress

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
    KINDS,
    TRIVIA_KINDS,
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
_BRACKETS = _OPENERS | _CLOSERS

# Tokens that end the head (modifiers stripped) of a member declaration;
# "" is the padding past the last token, where a top-level head ends.
_HEAD_ENDS = frozenset(("(", "=", ";", ",", "{", "}", ""))

_SIGNIFICANT = {kind: kind not in TRIVIA_KINDS for kind in KINDS}
# Empty entries past the last significant token: a lookahead reads at
# most two tokens past a cursor at most one past the last token.
_PAD = 2


@dataclass
class FieldDecl:
    name: str
    declared_type: str


@dataclass
class CallSite:
    callee_name: str
    receiver_kind: str  # RECEIVER_THIS, RECEIVER_NAMED or RECEIVER_OTHER
    receiver_name: str | None  # only for RECEIVER_NAMED


@dataclass
class MethodDecl:
    name: str
    has_params: bool
    return_type: str  # compact source text; "" for constructors
    reads_fields: set[str]
    writes_fields: set[str]
    call_sites: list[CallSite]


@dataclass
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


@dataclass
class CorpusUnit:
    path: str  # corpus-relative posix path
    classes: list[ClassDecl]


@dataclass
class CorpusParse:
    units: list[CorpusUnit]
    failures: list[tuple[str, str]]  # (path, "ErrorType: detail")
    warnings: list[str]


class _Parser:
    """Cursor over the significant tokens of one compilation unit.

    ``kinds`` and ``texts`` hold the significant tokens alone, ``index``
    the row of each in the unit's ``Tokens`` table, which builds a
    ``Span`` only for a class or an error. Past the last token, ``_PAD``
    empty entries let a lookahead read ``""``. ``partner`` is the unit's
    bracket table. Every scan moves either one token at a time or from an
    opener past its partner, and stops at the closer of the group it is
    in, so no scan leaves the group it started in.

    A keyword's text is only ever a keyword's, and ``(`` or ``=`` only
    punctuation, so a test on such a text needs no test on the kind.
    """

    def __init__(self, tokens: Tokens):
        kinds = tokens.kinds
        keep = list(map(_SIGNIFICANT.__getitem__, kinds))
        self.tokens = tokens
        self.index = list(compress(range(len(kinds)), keep))
        self.n = len(self.index)
        self.kinds = list(compress(kinds, keep)) + [""] * _PAD
        self.texts = list(compress(tokens.texts, keep)) + [""] * _PAD
        self.partner = self.match_brackets()
        self.pos = 0
        self.package = ""

    def span(self, a: int, b: int) -> Span:
        """The span from significant token ``a`` through ``b``."""
        return self.tokens.span(self.index[a], self.index[b])

    def match_brackets(self) -> list[int]:
        """Index of each bracket's partner; other entries are unused.

        Raises UnbalancedBraces at the first closer with no partner or of
        the wrong kind, or at the first opener that never closes.
        """
        texts = self.texts
        partner = [0] * self.n
        stack: list[int] = []
        for i in compress(range(self.n), map(_BRACKETS.__contains__, texts)):
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

    def at(self, text: str, k: int = 0) -> bool:
        return self.texts[self.pos + k] == text

    def at_kind(self, kind: str, k: int = 0) -> bool:
        return self.kinds[self.pos + k] == kind

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

    def take_generics(self) -> None:
        """Consume a ``<...>`` group; ``>>`` and ``>>>`` close 2 and 3 levels.

        ``(...)`` and ``[...]`` inside are jumped; ``;``, ``{`` or a closer
        ends the scan.
        """
        texts, n = self.texts, self.n
        depth = 0
        while self.pos < n:
            text = texts[self.pos]
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

    # -- declarations ----------------------------------------------------------

    def collect_modifiers(self) -> int:
        """Consume modifiers, the unknown ones too (see the module
        docstring), annotations and type parameters; return the index
        where they began. Stops at ``@interface``.

        ``non-sealed`` is three adjacent rows of the token table. An
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
                              and self.index[pos + 2] == self.index[pos] + 2) else 1
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
        """Read ``a.b.C`` with generics and array suffixes stripped."""
        if not self.at_kind(KIND_IDENTIFIER):
            return None
        texts = self.texts
        parts = [texts[self.pos]]
        self.pos += 1
        while self.at(".") and self.at_kind(KIND_IDENTIFIER, 1):
            parts.append(texts[self.pos + 1])
            self.pos += 2
        if self.at("<"):
            self.take_generics()
        while self.at("[") and self.at("]", 1):
            self.pos += 2
        return ".".join(parts)

    def parse_class(self, prefix: str, start: int, out: list[ClassDecl]) -> None:
        texts = self.texts
        kw = self.pos  # "class", "interface" or "record"
        self.pos += 1
        if not self.at_kind(KIND_IDENTIFIER):
            raise MissingClassName(self.span(kw, kw))
        simple_name = texts[self.pos]
        self.pos += 1
        name = prefix + simple_name
        if self.at("<"):
            self.take_generics()
        fields: list[FieldDecl] = []
        if texts[kw] == "record" and self.at("("):
            self.read_record_components(fields)

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

        methods: list[MethodDecl] = []
        bodies: list[tuple[MethodDecl, int]] = []
        nested: list[ClassDecl] = []
        close = self.partner[self.pos]
        self.pos += 1
        self.parse_members(name + ".", close, fields, methods, bodies, nested)
        self.pos = close + 1

        # Fields may be declared after the methods that use them, so the
        # bodies are scanned once the class's field list is complete.
        field_names = {f.name for f in fields}
        for method, body in bodies:
            self.scan_body(body, field_names, method)

        out.append(
            ClassDecl(
                name=name,
                package_name=self.package,
                super_name=extends or implements,
                fields=fields,
                methods=methods,
                span=self.span(start, close),
            )
        )
        out.extend(nested)

    def read_record_components(self, fields: list[FieldDecl]) -> None:
        """Consume a record header ``(T a, U b)``; each component is a field."""
        texts = self.texts
        close = self.partner[self.pos]
        self.pos += 1
        while self.pos < close:
            self.collect_modifiers()
            head = self.pos
            while self.pos < close and not self.at(","):
                if self.at("<"):
                    self.take_generics()
                else:
                    self.pos += 1
            name = self.pos - 1
            if name > head and self.kinds[name] == KIND_IDENTIFIER:
                fields.append(FieldDecl(texts[name], "".join(texts[head:name])))
            self.accept(",")
        self.pos = close + 1

    def parse_members(self, prefix: str, close: int, fields, methods, bodies, nested) -> None:
        """Parse the declarations from the cursor up to ``close``.

        ``close`` is the ``}`` of a class body, or ``self.n`` for the top
        level of the unit, which passes lists it then drops. Fields and
        methods go to ``fields`` and ``methods``, and each method with a
        body to ``bodies`` with the index of the body's ``{``. Each type
        declared here goes to ``nested`` as ``prefix + Name``, followed by
        the types nested in it.
        """
        texts = self.texts
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
                    self.parse_class(prefix, start, nested)
                elif text == "{":
                    # An initializer block, or a block after a stray word.
                    self.skip_group()
                else:
                    self.parse_member(fields, methods, bodies)

    def parse_member(self, fields, methods, bodies) -> None:
        """Parse one field or method declaration after its modifiers.

        Its head (modifiers stripped) is ``texts[head:end]``, the tokens
        before the first of ``_HEAD_ENDS``.
        """
        texts = self.texts
        head = self.pos
        while (text := texts[self.pos]) not in _HEAD_ENDS:
            if text == "<":
                self.take_generics()
            elif text == "@" and self.kinds[self.pos + 1] == KIND_IDENTIFIER:
                # A type annotation (``String @A(1) []``): its ``(`` opens
                # no parameter list.
                self.pos = self.past_annotations(self.pos)
            else:
                self.pos += 1
        if text == "}":
            return
        if text == "(":
            self.finish_method(head, self.pos, methods, bodies)
        elif text == "{":
            # A stray block after tokens we did not understand.
            self.skip_group()
        else:
            self.finish_fields(head, self.pos, fields)

    def finish_method(self, head: int, end: int, methods, bodies) -> None:
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
            bodies.append((method, self.pos))
            self.skip_group()
        else:
            self.accept(";")

    def finish_fields(self, head: int, end: int, fields: list[FieldDecl]) -> None:
        """Parse ``type a = init, b, c;`` declarator lists."""
        texts = self.texts
        if end - head < 2 or self.kinds[end - 1] != KIND_IDENTIFIER:
            self.skip_until((";",))
            self.accept(";")
            return
        declared_type = "".join(texts[head:end - 1])
        names = [end - 1]
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
                names.append(self.pos)
                self.pos += 1
        self.accept(";")
        for name in names:
            fields.append(FieldDecl(texts[name], declared_type))

    # -- method bodies -----------------------------------------------------------

    def scan_body(self, body: int, fields, method: MethodDecl) -> None:
        """Add the field accesses and call sites of the body at ``texts[body]``.

        ``body`` is the index of the body's ``{``. A call site is an
        identifier directly followed by ``(``, with these exceptions:

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
        at inside the unit.
        """
        texts, kinds, partner = self.texts, self.kinds, self.partner
        reads, writes, calls = method.reads_fields, method.writes_fields, method.call_sites
        for idx in range(body + 1, partner[body]):
            text = texts[idx]
            if text == "(":
                before = idx - 2
                if (
                    kinds[idx - 1] == KIND_IDENTIFIER
                    and texts[before] not in _CALL_BLOCKING_WORDS
                    and (kinds[before] != KIND_IDENTIFIER or texts[before] == "yield")
                    and texts[partner[idx] + 1] not in _HEADER_ENDS
                    and not self.names_annotation(idx - 1)
                ):
                    calls.append(self.call_site(idx))
            elif text in fields and kinds[idx] == KIND_IDENTIFIER:
                if texts[idx + 1] in ASSIGNMENT_OPERATORS:
                    writes.add(text)
                elif texts[idx - 1] != ".":
                    reads.add(text)

    def names_annotation(self, name: int) -> bool:
        """Whether ``texts[name]`` ends an ``@name`` or ``@a.b.name``."""
        texts, kinds = self.texts, self.kinds
        at = name - 1
        while texts[at] == "." and kinds[at - 1] == KIND_IDENTIFIER:
            at -= 2
        return texts[at] == "@"

    def call_site(self, paren: int) -> CallSite:
        texts = self.texts
        receiver_kind = RECEIVER_THIS
        receiver_name = None
        if texts[paren - 2] == ".":
            owner = paren - 3
            if self.kinds[owner] == KIND_IDENTIFIER:
                receiver_kind = RECEIVER_NAMED
                receiver_name = texts[owner]
            elif texts[owner] != "this":
                receiver_kind = RECEIVER_OTHER
        return CallSite(texts[paren - 1], receiver_kind, receiver_name)


def parse_unit(tokens: Tokens) -> list[ClassDecl]:
    """Extract class declarations from one file's token table.

    Outer classes precede their nested classes in the returned list.
    """
    parser = _Parser(tokens)
    classes: list[ClassDecl] = []
    parser.parse_members("", parser.n, [], [], [], classes)
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
    strip = len(os.path.join(root, ""))
    failures: list[tuple[str, str]] = []

    def unlisted(exc: OSError) -> None:
        failures.append((exc.filename[strip:] or ".", f"{type(exc).__name__}: {exc}"))

    paths = []
    for top, _, names in os.walk(root, onerror=unlisted):
        for name in names:
            if name.endswith(".java"):
                path = os.path.join(top, name)
                if os.path.isfile(path):
                    paths.append(path)
    paths.sort(key=os.fsencode)

    units: list[CorpusUnit] = []
    for path in paths:
        rel = path[strip:]
        try:
            with open(path, "rb") as f:
                data = f.read()
            units.append(CorpusUnit(rel, parse_unit(tokenize(data, rel))))
        except (CodeforestError, OSError) as exc:
            failures.append((rel, f"{type(exc).__name__}: {exc}"))

    failures.sort(key=lambda failure: os.fsencode(failure[0]))
    warnings = [] if paths else [f"no .java files under {root}"]
    return CorpusParse(units, failures, warnings)
