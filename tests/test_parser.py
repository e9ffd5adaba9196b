"""Declaration parsing and method-body scanning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforest import lexer
from codeforest.errors import (
    CodeforestError,
    MissingClassBody,
    MissingClassName,
    UnbalancedBraces,
)
from codeforest.lexer import tokenize
from codeforest.model import classify_method
from codeforest.parser import (
    RECEIVER_NAMED,
    RECEIVER_OTHER,
    RECEIVER_THIS,
    parse_corpus,
    parse_unit,
)
from conftest import FIXTURES


def parse(source: str):
    return parse_unit(tokenize(source.encode(), "<test>"))


def scan(body: str, fields):
    """The method whose body is ``body``, in a class declaring ``fields``."""
    decls = "".join(f"int {name}; " for name in fields)
    (cls,) = parse(f"class S {{ {decls}void m() {body} }}")
    (method,) = cls.methods
    return method


# ---------------------------------------------------------------------------
# The two hand-checked sample files.

def test_useraaa_declarations():
    source = (FIXTURES / "two_classes" / "Useraaa.java").read_bytes()
    (cls,) = parse_unit(tokenize(source, "Useraaa.java"))
    assert cls.name == "Useraaa"
    assert cls.package_name == ""
    assert cls.super_name is None
    assert [(f.name, f.declared_type) for f in cls.fields] == [("email", "String")]
    assert [(m.name, m.has_params, m.return_type) for m in cls.methods] == [
        ("getEmail", False, "String"),
        ("setEmail", True, "void"),
        ("notify", True, "void"),
    ]
    get_email, set_email, notify = cls.methods
    assert get_email.reads_fields == {"email"} and not get_email.writes_fields
    assert set_email.writes_fields == {"email"} and not set_email.reads_fields
    assert notify.call_sites == []
    assert cls.span.line_start == 1 and cls.span.line_end == 15


def test_ownerbbb_declarations():
    source = (FIXTURES / "two_classes" / "Ownerbbb.java").read_bytes()
    (cls,) = parse_unit(tokenize(source, "Ownerbbb.java"))
    assert cls.super_name == "Useraaa"
    assert [(f.name, f.declared_type) for f in cls.fields] == [
        ("maxNumLeagues", "int")
    ]
    assert [m.name for m in cls.methods] == ["getMaxNumLeagues", "setMaxNumLeagues"]


def test_empty_class():
    (cls,) = parse("class A { }")
    assert (cls.name, cls.fields, cls.methods) == ("A", [], [])


# ---------------------------------------------------------------------------
# Declaration forms.

def test_package_and_imports():
    (cls,) = parse("package a.b.c;\nimport java.util.List;\nclass K { }")
    assert cls.package_name == "a.b.c"
    assert cls.name == "K"


def test_semicolons_and_imports_between_classes_change_nothing():
    def records(between):
        # Byte offsets move with the text between; lines do not.
        return [
            (c.name, c.package_name, c.super_name, c.fields, c.methods,
             c.span.line_start, c.span.line_end)
            for c in parse(f"package p;\nclass A extends B {{ int x; }}{between}\n"
                           "class B { void m() { } }")
        ]

    plain = records("")
    assert [r[:3] for r in plain] == [("A", "p", "B"), ("B", "p", None)]
    for between in (";", "; ;", "import java.util.List;", "import static a.B.*; ;"):
        assert records(between) == plain, between


def test_modifiers_and_annotations():
    (cls,) = parse(
        """
        public abstract class W {
            @Deprecated @SuppressWarnings("x") public static final int MAX = 3;
            protected abstract void run();
        }
        """
    )
    assert [f.name for f in cls.fields] == ["MAX"]
    (run,) = cls.methods
    assert run.name == "run"


def test_constructor_has_empty_return_type():
    (cls,) = parse("class Engine { public Engine(int n) { } }")
    (ctor,) = cls.methods
    assert (ctor.name, ctor.return_type, ctor.has_params) == ("Engine", "", True)


@pytest.mark.parametrize(
    "params,has_params",
    [
        ("", False),
        ("/* none */", False),
        ("int a", True),
        ("int a, String b, double c", True),
        ("int[] xs", True),
        ("String... parts", True),
        ("Map<K, V> m", True),
        ("List<? extends Map<A,B>> x, int... y", True),
    ],
)
def test_has_params(params, has_params):
    (cls,) = parse(f"class P {{ void m({params}) {{ }} }}")
    assert cls.methods[0].has_params is has_params


def test_multi_declarator_field():
    (cls,) = parse("class F { private int a, b, c; }")
    assert [f.name for f in cls.fields] == ["a", "b", "c"]


def test_field_initializers_are_skipped():
    (cls,) = parse("class F { int x = make(1, 2), y = 3; void m() { } }")
    assert [f.name for f in cls.fields] == ["x", "y"]
    assert cls.methods[0].call_sites == []


def test_generic_field_type_is_compacted():
    (cls,) = parse("class G { private Map<String, List<Integer>> index; }")
    (f,) = cls.fields
    assert (f.name, f.declared_type) == ("index", "Map<String,List<Integer>>")


def test_generic_method_parses():
    (cls,) = parse("class G { public <T> T pick(T a) { return a; } }")
    (m,) = cls.methods
    assert (m.name, m.has_params) == ("pick", True)


def test_interface_members_have_no_bodies():
    (cls,) = parse("interface Draw { void draw(); int size(); }")
    assert [m.name for m in cls.methods] == ["draw", "size"]


def test_nested_class_is_flattened_after_its_owner():
    classes = parse(
        """
        class Outer {
            int size;
            int getSize() { return size; }
            static class Inner {
                void poke() { }
            }
        }
        """
    )
    assert [c.name for c in classes] == ["Outer", "Outer.Inner"]
    outer, inner = classes
    assert [m.name for m in outer.methods] == ["getSize"]
    assert [m.name for m in inner.methods] == ["poke"]
    assert inner.simple_name == "Inner"


def test_enum_and_annotation_declarations_are_skipped():
    classes = parse(
        """
        enum Color { RED, GREEN }
        @interface Marker { String value(); }
        class Kept { }
        """
    )
    assert [c.name for c in classes] == ["Kept"]


def test_extends_wins_over_implements():
    (cls,) = parse("class C extends Base implements A, B { }")
    assert cls.super_name == "Base"


def test_first_implements_is_super_when_no_extends():
    (cls,) = parse("class C implements A, B { }")
    assert cls.super_name == "A"


@pytest.mark.parametrize("source, super_name", [
    ("class Z implements A, B extends C { }", "C"),
    ("interface I extends J, K { }", "J"),
    # The ``extends`` of a later type argument opens no list.
    ("class C implements A, Comparable<List<? extends Number>> { }", "A"),
])
def test_super_is_the_first_extends_name_else_the_first_implements_name(source, super_name):
    (cls,) = parse(source)
    assert cls.super_name == super_name


def test_unbalanced_braces_raise():
    with pytest.raises(UnbalancedBraces):
        parse("class A { void m() { }")


def test_missing_class_name_raises():
    with pytest.raises(MissingClassName):
        parse("class { }")


def test_fields_declared_after_use_are_still_seen():
    (cls,) = parse(
        """
        class Late {
            void bump() { n = n + 1; }
            private int n;
        }
        """
    )
    assert cls.methods[0].writes_fields == {"n"}
    assert cls.methods[0].reads_fields == {"n"}


# ---------------------------------------------------------------------------
# Body scanning: field access.

def test_write_is_name_followed_by_assignment():
    s = scan("{ email = e; }", ["email"])
    assert s.writes_fields == {"email"}
    assert s.reads_fields == set()


def test_compound_assignment_is_a_write():
    s = scan("{ count += 2; }", ["count"])
    assert s.writes_fields == {"count"}


def test_read_is_any_other_undotted_occurrence():
    s = scan("{ return email; }", ["email"])
    assert s.reads_fields == {"email"}


def test_dotted_occurrence_is_not_a_read():
    s = scan("{ x = this.email; other.email.length(); }", ["email"])
    assert s.reads_fields == set()
    assert s.writes_fields == set()


def test_dotted_name_followed_by_assignment_is_a_write():
    s = scan("{ this.email = e; }", ["email"])
    assert s.writes_fields == {"email"}


def test_self_increment_reads_and_writes():
    s = scan("{ n = n + 1; }", ["n"])
    assert s.reads_fields == {"n"}
    assert s.writes_fields == {"n"}


# ---------------------------------------------------------------------------
# Body scanning: call sites.

def site_tuples(s):
    return [(c.callee_name, c.receiver_kind, c.receiver_name) for c in s.call_sites]


def test_bare_and_this_calls_are_implicit():
    s = scan("{ notify(msg); this.getEmail(); }", [])
    assert site_tuples(s) == [
        ("notify", RECEIVER_THIS, None),
        ("getEmail", RECEIVER_THIS, None),
    ]


def test_named_receiver():
    s = scan("{ cache.fetch(key); }", [])
    assert site_tuples(s) == [("fetch", RECEIVER_NAMED, "cache")]


def test_chained_and_super_calls_are_other():
    s = scan("{ a.b().c(); super.close(); }", [])
    assert site_tuples(s) == [
        ("b", RECEIVER_NAMED, "a"),
        ("c", RECEIVER_OTHER, None),
        ("close", RECEIVER_OTHER, None),
    ]


def test_blocking_keywords_suppress_sites():
    s = scan(
        "{ return compute(); new Thing(x); if (a) { } for (;;) { } "
        "while (b) { } switch (c) { } }",
        [],
    )
    assert site_tuples(s) == []


def test_call_inside_condition_counts():
    s = scan("{ if (ready()) { } }", [])
    assert site_tuples(s) == [("ready", RECEIVER_THIS, None)]


def test_constructor_delegation_is_not_a_site():
    s = scan("{ this(1); super(2); }", [])
    assert site_tuples(s) == []


def test_string_receiver_is_other():
    s = scan('{ "abc".length(); }', [])
    assert site_tuples(s) == [("length", RECEIVER_OTHER, None)]


def test_unicode_identifiers_are_fields_and_names():
    (cls,) = parse("class K { int größe; void setGröße(int v) { größe = v; } }")
    assert [f.name for f in cls.fields] == ["größe"]
    (method,) = cls.methods
    assert method.name == "setGröße"
    assert method.writes_fields == {"größe"}
    assert classify_method(method, "K") == "mutator"


def test_nested_record_is_a_class_not_a_method():
    classes = parse(
        "class A {\n"
        "  record R(int x, java.util.Map<String, Integer> m) implements Comparable<R> {\n"
        "    int twice() { return 2 * x; }\n"
        "  }\n"
        "  void a() { }\n"
        "}\n"
    )
    assert [c.name for c in classes] == ["A", "A.R"]
    outer, rec = classes
    assert [m.name for m in outer.methods] == ["a"]
    assert [(f.name, f.declared_type) for f in rec.fields] == [
        ("x", "int"), ("m", "java.util.Map<String,Integer>")
    ]
    (twice,) = rec.methods
    assert twice.name == "twice" and twice.reads_fields == {"x"}
    assert rec.super_name == "Comparable"


def test_record_compact_constructor_is_not_a_method():
    (rec,) = parse("record Range<T>(T lo, T hi) { Range { check(lo); } T lo() { return lo; } }")
    assert rec.name == "Range"
    assert [f.name for f in rec.fields] == ["lo", "hi"]
    assert [m.name for m in rec.methods] == ["lo"]


def test_record_as_a_name_is_not_a_declaration():
    (cls,) = parse("class K { Record record; void record(int n) { } }")
    assert [f.name for f in cls.fields] == ["record"]
    assert [m.name for m in cls.methods] == ["record"]


def test_sealed_and_non_sealed_are_modifiers():
    classes = parse(
        "sealed class A permits A.N, A.F {\n"
        "  non-sealed class N extends A { void n() {} }\n"
        "  static final class F extends A { }\n"
        "  public sealed interface S { }\n"
        "  boolean sealed;\n"
        "  int non = 1, x = non-sealed;\n"
        "}\n"
    )
    assert [c.name for c in classes] == ["A", "A.N", "A.F", "A.S"]
    a, n, _, _ = classes
    assert [f.name for f in a.fields] == ["sealed", "non", "x"]
    assert a.span.line_start == 1 and a.methods == []
    assert n.super_name == "A" and [m.name for m in n.methods] == ["n"]


def test_unknown_modifier_before_a_type_declaration_is_dropped():
    # ``value`` is no modifier the subset knows; directly before a type
    # declaration it is dropped at the top level and in a class body.
    classes = parse(
        "public value class A {\n"
        "  value class I { int x; }\n"
        "  value record P(int y) { }\n"
        "  int value;\n"
        "}\n"
    )
    assert [c.name for c in classes] == ["A", "A.I", "A.P"]
    a, i, p = classes
    assert [f.name for f in a.fields] == ["value"]
    assert [f.name for f in i.fields] == ["x"] and [f.name for f in p.fields] == ["y"]
    assert a.span.line_start == 1 and i.span.line_start == 2


def test_unknown_modifier_before_a_keyword_or_an_annotation_is_dropped():
    # The same rule as for ``sealed``: ``value`` before any keyword or
    # annotation is a modifier the subset does not know.
    classes = parse(
        "value final class N { }\n"
        "class O { value static class N { } value @A(1) interface I { } }\n"
    )
    assert [c.name for c in classes] == ["N", "O", "O.N", "O.I"]


def test_a_type_before_an_array_type_annotation_is_no_modifier():
    # ``String`` comes directly before an annotation, but ``[`` or
    # ``...`` after the annotation makes it the annotated array's type.
    cls, rec = parse(
        "class K { String @A [] names; String @B @c.D [] all() { return names; } }\n"
        "record R(String @A ... rest) { }\n"
    )
    assert [(f.name, f.declared_type) for f in cls.fields] == [("names", "String@A[]")]
    assert [(m.name, m.return_type) for m in cls.methods] == [("all", "String@B@c.D[]")]
    assert [(f.name, f.declared_type) for f in rec.fields] == [("rest", "String@A...")]


def test_a_type_annotation_with_arguments_is_no_method_header():
    # The annotation's ``(`` ends no member head: the member after it is
    # read, and no method is named after the annotation.
    cls, qualified = parse(
        "class C { String @A(1) [] all() { return null; } String @A [] names; }\n"
        "class Q { java.lang.@B(2) String name; int after; }\n"
    )
    assert [(m.name, m.return_type) for m in cls.methods] == [("all", "String@A(1)[]")]
    assert [(f.name, f.declared_type) for f in cls.fields] == [("names", "String@A[]")]
    assert qualified.methods == []
    assert [(f.name, f.declared_type) for f in qualified.fields] == [
        ("name", "java.lang.@B(2)String"), ("after", "int")]


def test_two_unknown_modifiers_in_a_row_are_not_modelled():
    # Only one unknown word is read as a modifier; the declaration after
    # two is dropped, and what follows it is still read.
    classes = parse(
        "sealed value class N { }\n"
        "class O { value sealed class M { } int x; }\n"
        "class After { }\n"
    )
    assert [c.name for c in classes] == ["O", "After"]
    assert [f.name for f in classes[0].fields] == ["x"]


def test_annotation_types_are_skipped_at_both_levels():
    classes = parse(
        "@interface Top { int size() default 1; }\n"
        "class O {\n"
        "  public @interface Inner { String value(); }\n"
        "  int kept;\n"
        "  @Deprecated @interface Marked { }\n"
        "  class K { }\n"
        "}\n"
        "@interface Last { }\n"
        "class After { }\n"
    )
    assert [c.name for c in classes] == ["O", "O.K", "After"]
    o = classes[0]
    assert [f.name for f in o.fields] == ["kept"] and o.methods == []


# Modifiers the subset knows, annotations, and the words it does not
# know; no two unknown words are adjacent.
_KNOWN_MODIFIERS = st.sampled_from(
    "public protected private static final abstract strictfp default @A @a.B(1)".split())
_UNKNOWN_MODIFIER = st.sampled_from(["sealed", "non-sealed", "value"])
_MODIFIER_RUNS = st.tuples(
    st.lists(st.tuples(st.lists(_UNKNOWN_MODIFIER, max_size=1), _KNOWN_MODIFIERS), max_size=4),
    st.lists(_UNKNOWN_MODIFIER, max_size=1),
).map(lambda t: [word for unknown, known in t[0] for word in (*unknown, known)] + t[1])


@settings(max_examples=200, deadline=None)
@given(modifiers=_MODIFIER_RUNS,
       declaration=st.sampled_from(["class N {}", "interface N {}", "record N() {}"]))
def test_a_type_declaration_after_any_run_of_modifiers_is_modelled(modifiers, declaration):
    text = " ".join([*modifiers, declaration])
    (top,) = parse(text)
    assert top.name == "N" and top.span.byte_start == 0
    outer = "class O { "
    o, nested = parse(outer + text + " }")
    assert nested.name == "O.N" and nested.span.byte_start == len(outer)
    assert o.fields == [] and o.methods == []


def test_spaced_non_sealed_is_not_a_modifier():
    # ``non - sealed`` is an expression, never the modifier.
    (cls,) = parse("class K { int non = 1, sealed = 2, d = non - sealed; }")
    assert [f.name for f in cls.fields] == ["non", "sealed", "d"]


def test_local_record_is_not_a_call_site():
    s = scan("{ record R(int x) { } R r = make(1); }", [])
    assert site_tuples(s) == [("make", RECEIVER_THIS, None)]


def test_anonymous_class_methods_are_not_call_sites():
    s = scan(
        "{ new Runnable() { public void run() { go(); } }; "
        "new Sized() { int size() { count(); return 1; } }; }",
        [],
    )
    assert site_tuples(s) == [("go", RECEIVER_THIS, None), ("count", RECEIVER_THIS, None)]


def test_anonymous_class_method_with_a_reference_type_is_not_a_call_site():
    s = scan("{ new Object() { public String toString() { return s; } }; }", [])
    assert site_tuples(s) == []
    s = scan("{ new Task() { Object call() throws Exception { go(); } }; }", [])
    assert site_tuples(s) == [("go", RECEIVER_THIS, None)]


def test_local_class_constructor_is_not_a_call_site():
    s = scan("{ class L { L(int x) { init(x); } } }", [])
    assert site_tuples(s) == [("init", RECEIVER_THIS, None)]


def test_qualified_anonymous_class_is_not_a_call_site():
    s = scan("{ new pkg.Foo(1) { }; pkg.make(2); }", [])
    assert site_tuples(s) == [("make", RECEIVER_NAMED, "pkg")]


def test_local_record_and_interface_declare_no_call_sites():
    s = scan(
        "{ record R(int x) implements Comparable<R> { } "
        "interface I { void run(); int size(); } }",
        [],
    )
    assert site_tuples(s) == []


def test_bodiless_methods_with_reference_and_array_types_are_declarations():
    s = scan("{ interface I { String name(); int[] arr(); } }", [])
    assert site_tuples(s) == []


def test_yield_call_is_a_call_site():
    s = scan("{ int v = switch (k) { default -> { yield compute(f); } }; }", [])
    assert site_tuples(s) == [("compute", RECEIVER_THIS, None)]


def test_generic_bodiless_method_still_reads_as_a_call():
    # ``>`` may close a type or be a comparison, so it blocks nothing.
    s = scan("{ interface I { List<String> all(); } }", [])
    assert site_tuples(s) == [("all", RECEIVER_THIS, None)]


def test_annotations_with_arguments_in_a_body_are_not_call_sites():
    s = scan(
        '{ @SuppressWarnings("u") int a = 1; '
        "@java.lang.SuppressWarnings({\"a\", \"b\"}) int b = f(a); "
        "@Deprecated() Runnable r = x.run(); }",
        [],
    )
    assert site_tuples(s) == [("f", RECEIVER_THIS, None), ("run", RECEIVER_NAMED, "x")]


# ---------------------------------------------------------------------------
# Field initializers.

def test_generic_construction_in_a_field_initializer():
    (cls,) = parse(
        "class A { Map<K, V> m = new HashMap<K, V>(), n; "
        "Map<K, V> q = new java.util.TreeMap<K, List<V>>(); }"
    )
    assert [f.name for f in cls.fields] == ["m", "n", "q"]


def test_less_than_in_a_field_initializer_is_a_comparison():
    (cls,) = parse("class A { boolean a = x < y, b; }")
    assert [f.name for f in cls.fields] == ["a", "b"]


# ---------------------------------------------------------------------------
# Bracket pairing.

def test_generic_type_with_braces_in_an_annotation():
    # ``{`` inside ``<...>`` belongs to the annotation's argument group.
    (cls,) = parse("class G { List<@Size({1, 2}) String> xs; int n; }")
    assert [(f.name, f.declared_type) for f in cls.fields] == [
        ("xs", "List<@Size({1,2})String>"), ("n", "int")
    ]


def test_declaration_skips_stop_at_the_enclosing_brace():
    # The unfinished field and enum stay inside A; B is still a class.
    classes = parse("class A { int x = 1 } class B { enum E }")
    assert [c.name for c in classes] == ["A", "B"]
    a, b = classes
    assert [f.name for f in a.fields] == ["x"] and b.fields == []


def test_unclosed_generics_end_at_the_enclosing_closer():
    # The ``<`` never closes, so its scan stops at the header's ``)``.
    (rec,) = parse("record R(int x, List<T) { int size() { return x; } }")
    assert [(f.name, f.declared_type) for f in rec.fields] == [("x", "int"), ("T", "List<")]
    assert [m.name for m in rec.methods] == ["size"]


def test_class_header_without_a_body_raises():
    # B's header reaches A's closing brace before any body opens.
    with pytest.raises(MissingClassBody) as err:
        parse("class A {\n  class B\n}\nclass C { }\n")
    assert err.value.span.line_start == 2
    assert str(err.value) == "<test>:2: class B has no body"


def test_class_header_at_end_of_file_raises():
    with pytest.raises(MissingClassBody):
        parse("class A extends B")


# ---------------------------------------------------------------------------
# The parse path builds no token objects and a span only per class, and
# its spans count bytes.

def test_parse_corpus_builds_no_token(monkeypatch):
    built = []

    class CountingToken:
        def __init__(self, *fields):
            built.append(fields)

    monkeypatch.setattr(lexer, "Token", CountingToken)
    result = parse_corpus(FIXTURES / "jfreechart_annotations")
    assert len(result.units) == 15 and not result.failures
    assert built == []
    list(tokenize(b"int x;"))  # the counter does see tokens built on demand
    assert len(built) == 4


def test_parse_corpus_builds_one_span_per_class(monkeypatch):
    # Members and call sites carry no span; only a class (for its line
    # count) and an error need one.
    built = []
    span = lexer.Tokens.span

    def counting_span(self, a, b):
        built.append((a, b))
        return span(self, a, b)

    monkeypatch.setattr(lexer.Tokens, "span", counting_span)
    result = parse_corpus(FIXTURES / "jfreechart_annotations")
    classes = sum(len(unit.classes) for unit in result.units)
    assert classes == 15 and not result.failures
    assert len(built) == classes


def test_spans_count_bytes_after_non_ascii_text():
    data = (
        "// é\n"
        "package p; /* é */\n"
        'class Café { String s = "é"; // é\n'
        "  void m() { run(); }\n"
        "}\n"
    ).encode()
    (cls,) = parse_unit(tokenize(data, "f"))
    assert cls.name == "Café"
    assert (cls.span.byte_start, cls.span.byte_end) == (data.index(b"class"), len(data) - 1)
    assert (cls.span.line_start, cls.span.line_end) == (3, 5)


# ---------------------------------------------------------------------------
# Random token sequences: a result or a typed error, never a traceback.

_WORDS = (
    "class interface record enum extends implements permits package import public "
    "static final sealed non-sealed value default @ < > >> , ; = . new return void "
    "int String A B x yield throws ? * -"
).split()


def _group(inner):
    return st.tuples(st.sampled_from(("()", "[]", "{}")), inner).map(
        lambda t: [t[0][0], *t[1], t[0][1]])


# Bracket groups nest, so most sequences get past the bracket check; a
# stray bracket now and then tests the check itself.
_TOKENS = st.recursive(
    st.lists(st.sampled_from(_WORDS + ["{", ")"]), max_size=8),
    lambda inner: st.lists(st.one_of(inner, _group(inner)), max_size=4).map(
        lambda parts: [token for part in parts for token in part]),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(tokens=_TOKENS)
def test_random_token_sequences_parse_or_raise_a_typed_error(tokens):
    try:
        classes = parse(" ".join(tokens))
    except CodeforestError:
        return
    assert all(c.name for c in classes)
