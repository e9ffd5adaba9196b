"""Declaration parsing and method-body scanning."""

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
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
from conftest import FIXTURES, deadline


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
    # C-style ``[]`` pairs after a name, with their annotations, belong to
    # that declarator alone, and no annotation's name becomes a field.
    (cls,) = parse("class A { int a[] = {1}, b; String s[]; int c; "
                   "int c[][] = new int[2][], d; int x @A [], y @a.B []; }")
    assert [(f.name, f.declared_type) for f in cls.fields] == [
        ("a", "int[]"), ("b", "int"), ("s", "String[]"), ("c", "int"),
        ("c", "int[][]"), ("d", "int"), ("x", "int@A[]"), ("y", "int@a.B[]")]
    (cls,) = parse("class A { int x @A [], y; int e, g @A []; }")
    assert [(f.name, f.declared_type) for f in cls.fields] == [
        ("x", "int@A[]"), ("y", "int"), ("e", "int"), ("g", "int@A[]")]


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
    # The name is read whole, past annotations and type arguments.
    ("class B extends @A Base { }", "Base"),
    ("class C implements @A I, J { }", "I"),
    ("class D extends a.b.@A(1) Base { }", "a.b.Base"),
    ("class E extends Outer<T>.@A Inner<U> { }", "Outer.Inner"),
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


def test_a_member_head_cut_short_by_the_body_close_declares_nothing():
    a, b = parse("class A { int x } class B { }")
    assert (a.name, a.fields, a.methods) == ("A", [], [])
    assert (b.name, b.fields, b.methods) == ("B", [], [])


@pytest.mark.parametrize("rest", ["{ foo(); }", ";"])
def test_a_parameter_list_after_no_name_is_skipped_with_its_body(rest):
    (cls,) = parse(f"class A {{ int[] () {rest} void m() {{ bar(); }} }}")
    (method,) = cls.methods
    assert method.name == "m"
    assert site_tuples(method) == [("bar", RECEIVER_THIS, None)]


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
    # ``return`` blocks nothing: ``return compute();`` is a call, and
    # ``return (x);`` has no name before its ``(``.
    s = scan(
        "{ return compute(); return (x); new Thing(x); if (a) { } for (;;) { } "
        "while (b) { } switch (c) { } }",
        [],
    )
    assert site_tuples(s) == [("compute", RECEIVER_THIS, None)]


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


def test_record_compact_constructor_is_a_constructor():
    (rec,) = parse("record Range<T>(T lo, T hi) { Range { check(lo); } T lo() { return lo; } }")
    assert rec.name == "Range"
    assert [f.name for f in rec.fields] == ["lo", "hi"]
    assert [(m.name, m.has_params, m.return_type) for m in rec.methods] == [
        ("Range", True, ""), ("lo", False, "T")]
    ctor = rec.methods[0]
    assert site_tuples(ctor) == [("check", RECEIVER_THIS, None)]
    assert ctor.reads_fields == {"lo"}


def test_compact_constructor_has_params_when_the_record_has_components():
    # A static field does not count as a component.
    outer, rec = parse("class O { record E() { static int n; public E { check(); } } }")
    assert [(m.name, m.has_params, m.return_type) for m in rec.methods] == [("E", False, "")]
    assert outer.methods == []


def test_record_as_a_name_is_not_a_declaration():
    (cls,) = parse("class K { Record record; void record(int n) { } }")
    assert [f.name for f in cls.fields] == ["record"]
    assert [m.name for m in cls.methods] == ["record"]


def test_unicode_escapes_are_read_as_java_reads_them():
    (cls,) = parse(
        "class A\\u0042 {\n"
        "  int x\\u0031;\n"
        "  void f() { g\\u0031(); } // c \\u000a void real() {}\n"
        "}\n"
    )
    assert cls.name == "AB"
    assert [(f.name, f.declared_type) for f in cls.fields] == [("x1", "int")]
    assert [m.name for m in cls.methods] == ["f", "real"]
    assert site_tuples(cls.methods[0]) == [("g1", RECEIVER_THIS, None)]
    # The escaped line end is a line end: the class spans five lines.
    assert (cls.span.line_start, cls.span.line_end) == (1, 5)


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
    # read, and no method is named after the annotation. Nor does its
    # ``,`` end a record component.
    cls, qualified, rec = parse(
        "class C { String @A(1) [] all() { return null; } String @A [] names; }\n"
        "class Q { java.lang.@B(2) String name; int after; }\n"
        "record R(String @A(1, 2) [] x, int y) {}\n"
    )
    assert [(m.name, m.return_type) for m in cls.methods] == [("all", "String@A(1)[]")]
    assert [(f.name, f.declared_type) for f in cls.fields] == [("names", "String@A[]")]
    assert qualified.methods == []
    assert [(f.name, f.declared_type) for f in qualified.fields] == [
        ("name", "java.lang.@B(2)String"), ("after", "int")]
    assert [(f.name, f.declared_type) for f in rec.fields] == [
        ("x", "String@A(1,2)[]"), ("y", "int")]


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
    # One word a line, so the span's first line is the first modifier's.
    text = "\n".join([*modifiers, declaration])
    (top,) = parse(text)
    assert top.name == "N" and (top.span.line_start, top.span.line_end) == (1, len(modifiers) + 1)
    o, nested = parse("class O {\n" + text + " }")
    assert nested.name == "O.N" and nested.span.line_start == 2
    assert o.fields == [] and o.methods == []


def test_spaced_non_sealed_is_not_a_modifier():
    # ``non - sealed`` is an expression, never the modifier.
    (cls,) = parse("class K { int non = 1, sealed = 2, d = non - sealed; }")
    assert [f.name for f in cls.fields] == ["non", "sealed", "d"]
    # Nor is ``non/**/-sealed``: its tokens are not adjacent in the text.
    assert [c.name for c in parse("class K { non/**/-sealed class N { } }")] == ["K"]


def test_local_record_is_not_a_call_site():
    s = scan("{ record R(int x) { } R r = make(1); }", [])
    assert site_tuples(s) == [("make", RECEIVER_THIS, None)]


def test_anonymous_class_methods_are_not_call_sites():
    s = scan(
        "{ new Runnable() { public void run() { go(); } }; "
        "new Sized() { int size() { count(); return 1; } }; o.new Inner() { void r() { q(); } }; }",
        [],
    )
    assert site_tuples(s) == [("go", RECEIVER_THIS, None), ("count", RECEIVER_THIS, None),
                              ("q", RECEIVER_THIS, None)]


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


def test_generic_bodiless_method_is_a_declaration():
    s = scan(
        "{ interface I { List<String> all(); Map<K, List<V>> b(); "
        "java.util.List<X> c(); public Map<K, Map<K, V>> d(); List<? extends int[]> e(); "
        "@Nullable List<String> f(); <T> List<T> g(); } }",
        [],
    )
    assert site_tuples(s) == []


_CALLS_AFTER_ANGLES = [
    ("{ return a > f(); }", ("f", RECEIVER_THIS, None)),
    ("{ if (a < b && c > f()) { } }", ("f", RECEIVER_THIS, None)),
    ("{ return this.<T>f(); }", ("f", RECEIVER_THIS, None)),
    ("{ Collections.<String>f(); }", ("f", RECEIVER_NAMED, "Collections")),
    ("{ g(a < b, c > f()); }", ("f", RECEIVER_THIS, None)),
    ("{ x = a < b ? c > f() : d; }", ("f", RECEIVER_THIS, None)),
]


@pytest.mark.parametrize("body, site", _CALLS_AFTER_ANGLES,
                         ids=[body for body, _ in _CALLS_AFTER_ANGLES])
def test_a_comparison_or_type_arguments_before_a_call_keep_it(body, site):
    assert site in site_tuples(scan(body, []))


def test_explicit_type_arguments_keep_the_receiver():
    # The receiver is the name before the ``.`` that the type arguments
    # follow; a ``>`` that closes no ``.<`` group leaves the call bare.
    s = scan("{ obj.<T>foo(); List.<K, V>of(); m.<Map<K, V>>get(); this.<T>bar(); "
             "super.<T>sup(); a.b().<int[]>c(); if (a > m()) { } f(a < b, c > m()); }", [])
    assert site_tuples(s) == [
        ("foo", RECEIVER_NAMED, "obj"), ("of", RECEIVER_NAMED, "List"),
        ("get", RECEIVER_NAMED, "m"), ("bar", RECEIVER_THIS, None),
        ("sup", RECEIVER_OTHER, None), ("b", RECEIVER_NAMED, "a"), ("c", RECEIVER_OTHER, None),
        ("m", RECEIVER_THIS, None), ("f", RECEIVER_THIS, None), ("m", RECEIVER_THIS, None)]
    # The name after the type arguments is a call, no read of a field,
    # and so is a bare call of a method named like a field.
    s = scan("{ int j = obj.<T>size(); }", ["size"])
    assert site_tuples(s) == [("size", RECEIVER_NAMED, "obj")]
    assert s.reads_fields == set()
    s = scan("{ size(); }", ["size"])
    assert site_tuples(s) == [("size", RECEIVER_THIS, None)]
    assert s.reads_fields == set()


def test_annotations_with_arguments_in_a_body_are_not_call_sites():
    s = scan(
        '{ @SuppressWarnings("u") int a = 1; '
        "@java.lang.SuppressWarnings({\"a\", \"b\"}) int b = f(a); "
        "@Deprecated() Runnable r = x.run(); }",
        [],
    )
    assert site_tuples(s) == [("f", RECEIVER_THIS, None), ("run", RECEIVER_NAMED, "x")]
    # An annotation is jumped whole: neither its name nor its arguments
    # read or write a field.
    s = scan("{ @Deprecated int j = 1; @SuppressWarnings(MAX) int k = 2; "
             "@a.Deprecated(MAX = 1) int l = 3; }", ["Deprecated", "MAX"])
    assert s.reads_fields == set() and s.writes_fields == set()


def test_a_qualified_construction_is_not_a_call_site():
    # Nor with type arguments on an inner segment, constructor type
    # arguments or an annotation on an inner segment.
    s = scan("{ line = new Line2D.Double(0, 0, f(), 1); Map m = new java.util.HashMap(); "
             "new Outer.Inner<T>.Deep(); new <T>Foo(); new a.@A B(); }", [])
    assert site_tuples(s) == [("f", RECEIVER_THIS, None)]


@pytest.mark.parametrize("body", [
    "{ if (o instanceof Point(int x, int y) && g()) { } }",
    "{ switch (o) { case Line(Point(var a, var b), Point c) when g() -> { } default -> { } } }",
    "{ switch (o) { case Box<String>(var s): g(); } }",
])
def test_a_record_pattern_is_not_a_call_site(body):
    assert site_tuples(scan(body, [])) == [("g", RECEIVER_THIS, None)]


@pytest.mark.parametrize("body, reads", [
    # After ``instanceof`` the type is read whole; the scan resumes past it.
    ("{ if (o instanceof Point) { } }", set()),
    ("{ if (o instanceof Point && Other > 0) { } }", {"Other"}),
    ("{ if (o instanceof Point[] && Other > 0) { } }", {"Other"}),
    ("{ if (o instanceof Point q && q.x > Other) { } }", {"Other"}),
    ("{ if (o instanceof Point(int x, int y) && Other > 0) { } }", {"Other"}),
    # After ``case``, when a binding name or a record pattern follows.
    ("{ switch (o) { case Point q -> n = Other; default -> { } } }", {"Other"}),
    ("{ switch (o) { case Point(var x, var y) -> { } default -> n = Other; } }", {"Other"}),
    ("{ switch (o) { case Point q when q.x > Other -> { } default -> { } } }", {"Other"}),
    # A constant label reads its name.
    ("{ switch (n) { case Point: break; case Other -> { } } }", {"Point", "Other"}),
    # A field name directly before an identifier is a declared type.
    ("{ Point p; Other q = 1; final Point r = null; }", set()),
    ("{ for (Point p : Other) { } }", {"Other"}),
    # A type read whole before a declared name, a cast, a type argument.
    ("{ Point[] ps = null; }", set()),
    ("{ List<Point> ps = null; }", set()),
    ("{ Point<T> ps = null; }", set()),
    ("{ Point.Inner q = null; }", set()),
    ("{ Object p = (Point) o; }", set()),
    ("{ Object p = (Point[]) o; Map<Point, String> m = null; }", set()),
])
def test_a_type_named_like_a_field_is_no_read(body, reads):
    s = scan(body, ["Point", "Other"])
    assert s.reads_fields == reads and s.writes_fields == set()
    assert site_tuples(s) == []


@pytest.mark.parametrize("body", [
    "{ int a = Point.x; }",
    "{ Point.m(); }",
    "{ int a = (Point) - 1; }",
    "{ boolean b = Point < n; }",
    "{ boolean b = a < Point; }",
    "{ if (lo < Point && hi > lo) { } }",
    "{ if (Point) run(); }",
    "{ while (Point) run(); }",
])
def test_a_field_used_as_a_value_is_still_read(body):
    s = scan(body, ["Point"])
    assert s.reads_fields == {"Point"} and s.writes_fields == set()


def test_a_switch_guard_is_a_call_site():
    s = scan("{ switch (o) { case String s when check(s) -> run(s); default -> { } } }", [])
    assert site_tuples(s) == [("check", RECEIVER_THIS, None), ("run", RECEIVER_THIS, None)]


def test_a_local_enum_is_skipped_whole():
    # As at every other level: neither its constants nor the calls in it count.
    s = scan("{ enum E { A(1), B(f()); } g(); }", ["f"])
    assert site_tuples(s) == [("g", RECEIVER_THIS, None)]
    assert s.reads_fields == set()


def test_the_code_of_a_class_body_in_a_method_counts_in_source_order():
    # Arguments, field initializer, initializer block, method bodies,
    # a local class in one of them, then the code after the body.
    s = scan(
        "{ a(); new T(b()) { int x = c(), y; { d(); } void e(int n) { g(); "
        "class L { L() { k(); } } l(); } }; record R(int n) { R { m(); } } z(); }",
        [],
    )
    assert [c.callee_name for c in s.call_sites] == list("abcdgklmz")


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_the_oracle_finds_the_parsed_call_sites_in_every_fixture(name):
    root = FIXTURES / name
    parsed = Counter(site for unit in parse_corpus(root).units for cls in unit.classes
                     for method in cls.methods for site in site_tuples(method))
    rescanned = Counter(site for path in root.rglob("*.java")
                        for site in oracles.file_call_sites(path.read_text(encoding="utf-8")))
    assert parsed == rescanned
    if name == "jfreechart_annotations":
        kinds = Counter(kind for _, kind, _ in parsed.elements())
        assert kinds == {RECEIVER_NAMED: 250, RECEIVER_THIS: 47, RECEIVER_OTHER: 9}


# ---------------------------------------------------------------------------
# Field initializers.

def test_generic_construction_in_a_field_initializer():
    # Type arguments split no declarator list after ``new``, nor after
    # ``instanceof``, before a method name or before ``::``.
    (cls,) = parse(
        "class A { Map<K, V> m = new HashMap<K, V>(), n; "
        "Map<K, V> q = new java.util.TreeMap<K, List<V>>(); "
        "Map<K, V> r = new @A HashMap<K, V>(), s; Object t = new <K, V>Foo(), u; "
        "Object v = new a.@A B<K, V>.C<K, V>(), w; "
        "boolean b = o instanceof Map<K, V> p, c; Object d = List.<K, V>of(), e; "
        "Supplier<Map<K,V>> f = HashMap<K, V>::new, g; }"
    )
    assert [f.name for f in cls.fields] == [
        "m", "n", "q", "r", "s", "t", "u", "v", "w", "b", "c", "d", "e", "f", "g"]


def test_less_than_in_a_field_initializer_is_a_comparison():
    # A ``<`` whose group meets ``=`` or ``;`` before it closes.
    (cls,) = parse("class A { boolean a = x < y, b; boolean c = x < y, d = p > q; "
                   "int e = x < y ? 1 : 2, f; }")
    assert [f.name for f in cls.fields] == ["a", "b", "c", "d", "e", "f"]


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
# The parse path builds a span only per class, and its spans count lines.

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


def test_spans_count_lines_after_non_ascii_text():
    data = (
        "// é\n"
        "package p; /* é */\n"
        'class Café { String s = "é"; // é\n'
        "  void m() { run(); }\n"
        "}\n"
    ).encode()
    (cls,) = parse_unit(tokenize(data, "f"))
    assert cls.name == "Café"
    assert (cls.span.line_start, cls.span.line_end) == (3, 5)


# ---------------------------------------------------------------------------
# Random token sequences: a result or a typed error, never a traceback.

_WORDS = (
    "class interface record enum extends implements permits package import public "
    "static final sealed non-sealed value default @ < > >> >>> , ; = . .< new return void "
    "int String A B x yield when case instanceof throws this super ? * -"
).split()


def _is_name(text) -> bool:
    """Whether ``text`` is one identifier token, so no keyword."""
    return tokenize(text.encode(), "<name>").kinds == [lexer.KIND_IDENTIFIER]


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
# Explicit type arguments that close before no name, or never close.
@example(tokens=". < A > int ( )".split())
@example(tokens="this . < A >> > ( ) x . < B".split())
@example(tokens="( . < A ) x ( )".split())
def test_random_token_sequences_parse_or_raise_a_typed_error(tokens):
    # Read as a unit and as a method body. Every call site calls a name,
    # and a ``named`` one is on a name.
    text = " ".join(tokens)
    for source in (text, f"class S {{ void m() {{ {text} }} }}"):
        try:
            with deadline(2.0):
                classes = parse(source)
        except CodeforestError:
            continue
        assert all(c.name for c in classes)
        sites = [site for c in classes for m in c.methods for site in m.call_sites]
        assert all(_is_name(site.callee_name) for site in sites)
        assert all(_is_name(site.receiver_name) for site in sites
                   if site.receiver_kind == RECEIVER_NAMED)


# ---------------------------------------------------------------------------
# Nesting plans: types in types, rendered from a plan that alone says
# which of them are modelled and which calls each method makes.

_NEST_KINDS = ("class", "interface", "record", "enum", "anonymous",
               "local class", "local interface", "local record")

# A plan is a tuple of (kind, plan) pairs, one per declaration of a body.
_NESTING_PLANS = st.recursive(
    st.just(()),
    lambda inner: st.lists(st.tuples(st.sampled_from(_NEST_KINDS), inner), max_size=3).map(tuple),
    max_leaves=12,
)

# Member heads of the shapes that were once read as calls in a method
# body: an annotation with arguments, type parameters before a generic
# type, an array type, a throws clause.
_HEADS = ("@A(x = 1) void h{}()", "<T> List<T> h{}(T t)", "int[] h{}()",
          "String h{}() throws E", "@Nullable List<String> h{}()")


def render_plan(plan, kind, prefix, expected, numbers) -> tuple[str, list, list, list[str]]:
    """The Java text of a body of ``kind`` (None for the unit's top level)
    holding ``plan``'s declarations; its fields; its methods as ``(name,
    calls)``; and every call in its code, nested bodies but enums'
    included, in source order.

    A body that is no interface's opens with a method, a field and an
    initializer block, and each of them calls ``c{n}()``; an interface
    body opens with a bodiless method. Each type modelled goes to
    ``expected`` in pre-order as ``[name, fields, methods]``. An
    ``anonymous`` or ``local`` entry is a method whose body calls
    ``c{n}()`` before or after it holds an anonymous class or a local
    declaration. ``prefix`` is None in a body that is not modelled: one
    in code or in an ``enum``. ``numbers`` makes names unique.
    """
    parts, fields, methods, calls = [], [], [], []
    if kind is not None:
        n = next(numbers)
        head = _HEADS[n % len(_HEADS)].format(n)
        if kind == "interface":
            parts.append(f"{head};")
            methods.append((f"h{n}", []))
        else:
            parts.append(f"{head} {{ c{n}(); }} int f{n} = c{n}(); {{ c{n}(); }}")
            methods.append((f"h{n}", [f"c{n}"]))
            fields.append(f"f{n}")
            calls += [f"c{n}"] * 3
    for entry_kind, inner in plan:
        n = next(numbers)
        if entry_kind == "anonymous" or entry_kind.startswith("local "):
            inner_kind = entry_kind.removeprefix("local ")
            body, _, _, inner_calls = render_plan(inner, inner_kind, None, expected, numbers)
            if entry_kind == "anonymous":
                declaration = f"Object o = new Object() {{ {body} }};"
            else:
                components = "(int a)" if inner_kind == "record" else ""
                declaration = f"{inner_kind} L{n}{components} {{ {body} }}"
            if n % 2:
                parts.append(f"void m{n}() {{ {declaration} c{n}(); }}")
                method_calls = inner_calls + [f"c{n}"]
            else:
                parts.append(f"void m{n}() {{ c{n}(); {declaration} }}")
                method_calls = [f"c{n}"] + inner_calls
            methods.append((f"m{n}", method_calls))
            calls += method_calls
            continue
        header = f"{entry_kind} T{n}"
        components = []
        if entry_kind == "record":
            header += f"(int a{n}, String b{n})"
            components = [f"a{n}", f"b{n}"]
        modelled = prefix is not None and entry_kind != "enum"
        entry = [f"{prefix}T{n}", components, []]
        if modelled:
            expected.append(entry)
        body, inner_fields, entry[2], inner_calls = render_plan(
            inner, entry_kind, f"{entry[0]}." if modelled else None, expected, numbers)
        entry[1] += inner_fields
        if entry_kind != "enum":
            calls += inner_calls
        parts.append(f"{header} {{ {'A, B; ' if entry_kind == 'enum' else ''}{body} }}")
    return " ".join(parts), fields, methods, calls


@settings(max_examples=150, deadline=None)
@given(plan=_NESTING_PLANS)
def test_nested_types_are_modelled_as_their_plan_says(plan):
    expected = []
    text, _, _, _ = render_plan(plan, None, "", expected, itertools.count())
    with deadline(2.0):
        classes = parse(text)
    assert [[c.name, [f.name for f in c.fields],
             [(m.name, [s.callee_name for s in m.call_sites]) for m in c.methods]]
            for c in classes] == expected


# ---------------------------------------------------------------------------
# Declarator plans: field declarator lists and record components, rendered
# from a plan that alone gives every field's name and declared type.

_ANNOTATIONS = st.sampled_from(["@A", "@A(1, 2)", "@a.B(x = 1, y = {1, 2})"])
_BASE_TYPES = st.sampled_from(["int", "String", "K", "List<K>", "Map<K, List<V>>",
                               "Map<? extends K, ? super V>", "java.util.Map<K, V>"])
# Initializers that hold a ``,`` or a ``<`` no declarator list splits at.
_ATOMS = ["g(1, 2)", "new G<K, V>()", "o instanceof T<K, V> p", "List.<K, V>m()",
          "T<K, V>::new", "x < y", "p > q", "x < y ? 1 : 2", "(a, b) -> a < b",
          "() -> { return f(x, y); }"]
_INITIALIZERS = st.none() | st.sampled_from([*_ATOMS, "{1, 2}"]) | st.tuples(
    st.sampled_from(_ATOMS), st.sampled_from(_ATOMS)).map(lambda t: f"c ? {t[0]} : {t[1]}")
_LEADING = st.sampled_from(["", "private ", "static final ", "@A(1, 2) ", "@Deprecated private "])


@st.composite
def _written_types(draw, varargs=False):
    """A type as written: generic, array or varargs, with type annotations
    in an array, a type argument or a qualified name."""
    base, annotation = draw(_BASE_TYPES), draw(_ANNOTATIONS)
    if varargs:
        return draw(st.sampled_from([f"{base}...", f"{base} {annotation} ..."]))
    return draw(st.sampled_from([base, f"{base}[]", f"{base}[][]", f"{base} {annotation} []",
                                 f"List<{annotation} {base}>", f"java.lang.{annotation} String"]))


# Each declarator is its C-style ``[]`` pairs after its name, each given
# as the annotation before it or "", and an initializer or None.
_DECLARATIONS = st.lists(
    st.tuples(_LEADING, _written_types(),
              st.lists(st.tuples(st.lists(_ANNOTATIONS | st.just(""), max_size=2),
                                 _INITIALIZERS), min_size=1, max_size=3)),
    max_size=4)
# A leading annotation on a component annotates the component, not its type.
_COMPONENTS = st.tuples(
    st.lists(st.tuples(_ANNOTATIONS | st.just(""), _written_types()), max_size=3),
    st.lists(_written_types(varargs=True), max_size=1),
).map(lambda t: t[0] + [("", varargs) for varargs in t[1]])


def render_declarators(declarations, components) -> tuple[str, list, list]:
    """A class holding ``declarations`` and a record holding ``components``,
    and the ``(name, declared type)`` of each one's fields: the names are
    numbered in source order and a type is its text without blanks, with
    the ``[]`` pairs, and their annotations, written after its declarator's
    name."""
    numbers = itertools.count()
    members, fields = [], []
    for leading, written, plan in declarations:
        declarators = []
        for dims, initializer in plan:
            name = f"f{next(numbers)}"
            suffix = "".join(f" {annotation} []" for annotation in dims)
            fields.append((name, "".join((written + suffix).split())))
            name += suffix
            declarators.append(name if initializer is None else f"{name} = {initializer}")
        members.append(f"{leading}{written} {', '.join(declarators)};")
    header, record_fields = [], []
    for annotation, written in components:
        name = f"c{next(numbers)}"
        record_fields.append((name, "".join(written.split())))
        header.append(f"{annotation} {written} {name}")
    text = f"class C {{ {' '.join(members)} }}\nrecord R({', '.join(header)}) {{ }}\n"
    return text, fields, record_fields


@settings(max_examples=200, deadline=None)
@given(declarations=_DECLARATIONS, components=_COMPONENTS)
def test_declarators_and_record_components_are_read_as_their_plan_says(declarations, components):
    text, fields, record_fields = render_declarators(declarations, components)
    with deadline(2.0):
        cls, rec = parse(text)
    assert [(f.name, f.declared_type) for f in cls.fields] == fields
    assert [(f.name, f.declared_type) for f in rec.fields] == record_fields


# ---------------------------------------------------------------------------
# Call plans: method bodies rendered from a plan that alone gives every
# call site, in source order, with its receiver.

# (text before the type arguments, receiver kind, receiver name); the call
# ``a{n}()`` that a chained receiver makes is planned on its own.
_RECEIVERS = [("", RECEIVER_THIS, None), ("this.", RECEIVER_THIS, None),
              ("super.", RECEIVER_OTHER, None), ("obj.", RECEIVER_NAMED, "obj"),
              ("a{n}().", RECEIVER_OTHER, None)]
# Explicit type arguments, nested and closed by ``>>`` and ``>>>`` too.
_TYPE_ARGUMENTS = ["", "<T>", "<K, V>", "<List<K>>", "<Map<K, List<V>>>", "<int[]>"]
_LOCAL_ANNOTATIONS = ["", "@A ", "@a.b.C ", '@A(1, "x") ', "@A({1, 2}) "]
# Where the call stands: ``{}`` is the call; a comparison comes just before
# it in the last two.
_CONTEXTS = ["{};", "{annotation}int j{n} = {};", "g{n}(a < b, c > {});",
             "boolean t{n} = x > {};"]

_CALL_PLANS = st.lists(st.tuples(
    st.sampled_from(_CONTEXTS), st.sampled_from(_LOCAL_ANNOTATIONS),
    st.sampled_from(_RECEIVERS), st.sampled_from(_TYPE_ARGUMENTS)), min_size=1, max_size=6)


def render_calls(plan) -> tuple[str, list[tuple[str, str, str | None]]]:
    """A file whose one method runs ``plan``'s statements, and every
    ``(callee, receiver_kind, receiver)`` the statements make, in source
    order. Each statement calls ``m{n}``, where ``n`` numbers it; type
    arguments need a ``.``, so a bare call has none."""
    statements, sites = [], []
    for n, (context, annotation, (receiver, kind, name), arguments) in enumerate(plan):
        if context.startswith("g"):
            sites.append((f"g{n}", RECEIVER_THIS, None))
        if receiver.startswith("a"):
            sites.append((f"a{n}", RECEIVER_THIS, None))
        sites.append((f"m{n}", kind, name))
        call = receiver.format(n=n) + (arguments if receiver else "") + f"m{n}()"
        statements.append(context.format(call, n=n, annotation=annotation))
    return f"class C {{ void run() {{ {' '.join(statements)} }} }}\n", sites


@settings(max_examples=200, deadline=None)
@given(plan=_CALL_PLANS)
def test_call_sites_are_read_as_their_plan_says(plan):
    text, sites = render_calls(plan)
    with deadline(2.0):
        (cls,) = parse(text)
    (method,) = cls.methods
    assert site_tuples(method) == sites
    assert oracles.file_call_sites(text) == sites


# ---------------------------------------------------------------------------
# Field plans: fields, parameters and locals, and method bodies rendered
# from a plan that alone gives every method's field reads and writes.

# Statement -> (reads, writes) of ``{x}`` when it names a field. A field
# name directly before an assignment operator is a write, dotted or not;
# any other use is a read unless it is dotted or a type (``names_type``).
_ACCESSES = {
    "int v{n} = {x};": (True, False),
    "int v{n} = this.{x};": (False, False),
    "int v{n} = obj.{x};": (False, False),
    "{x} = 1;": (False, True),
    "this.{x} = 1;": (False, True),
    "obj.{x} = 1;": (False, True),
    # A step writes its field, as a compound assignment does.
    "{x}++;": (False, True),
    "++{x};": (False, True),
    "{x}--;": (False, True),
    "--{x};": (False, True),
    "this.{x}++;": (False, True),
    "{x} += 2;": (False, True),
    "{x}[i] = 1;": (True, False),
    # A declared type, a cast and a first type argument read nothing.
    "{x} v{n} = null;": (False, False),
    "Object v{n} = ({x}) obj;": (False, False),
    "List<{x}> v{n} = null;": (False, False),
    "Map<{x}, String> v{n} = null;": (False, False),
    # A later type argument still reads the field, as README says.
    "Map<String, {x}> v{n} = null;": (True, False),
}


@st.composite
def _field_plans(draw):
    """``(fields, methods)``: the number of fields ``f{k}``, and per method
    its number of parameters ``p{k}`` and locals ``l{k}`` and its
    ``(statement, name)`` accesses, each name a field, a parameter or a
    local. No parameter or local shares a field's name."""
    fields = draw(st.integers(1, 3))
    methods = []
    for _ in range(draw(st.integers(1, 3))):
        params, locals_ = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        names = ([f"f{k}" for k in range(fields)] + [f"p{k}" for k in range(params)]
                 + [f"l{k}" for k in range(locals_)])
        accesses = draw(st.lists(st.tuples(st.sampled_from(list(_ACCESSES)),
                                           st.sampled_from(names)), max_size=6))
        methods.append((params, locals_, accesses))
    return fields, methods


def render_fields(fields, methods) -> tuple[str, list[tuple[set, set]]]:
    """A class declaring the planned fields and methods, and each
    method's ``(reads_fields, writes_fields)``, from the plan alone."""
    members = [f"int f{k};" for k in range(fields)]
    numbers = itertools.count()
    expected = []
    for m, (params, locals_, accesses) in enumerate(methods):
        statements = [f"int l{k} = 0;" for k in range(locals_)]
        reads, writes = set(), set()
        for statement, name in accesses:
            statements.append(statement.format(x=name, n=next(numbers)))
            read, write = _ACCESSES[statement] if name.startswith("f") else (False, False)
            if read:
                reads.add(name)
            if write:
                writes.add(name)
        header = ", ".join(f"int p{k}" for k in range(params))
        members.append(f"void m{m}({header}) {{ {' '.join(statements)} }}")
        expected.append((reads, writes))
    return f"class C {{ {' '.join(members)} }}\n", expected


@settings(max_examples=200, deadline=None)
@given(plan=_field_plans())
def test_field_reads_and_writes_are_read_as_their_plan_says(plan):
    text, expected = render_fields(*plan)
    with deadline(2.0):
        (cls,) = parse(text)
    assert [(m.reads_fields, m.writes_fields) for m in cls.methods] == expected
