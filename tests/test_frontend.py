"""Frontend tests: lexing, strict parsing, line counting, resolution."""
from __future__ import annotations

import os
import re
import time

from hypothesis import given
from hypothesis import strategies as st

from dimetrics import frontend
from dimetrics.analysis import analyze_directory, analyze_project_model
from dimetrics.frontend import (
    MAX_EXPRESSION_NESTING,
    SourceFile,
    base_type_name,
    discover_source_files,
    load_source_file,
    parse_source,
    resolve_project,
    tokenize,
)

from conftest import make_class, make_method, named_tests, parse_text, token_sequences

CND_SNIPPET = """\
public class DogPenCND {
    private Dog dog;
    public DogPenCND(Dog dog) {
        this.dog = dog;
    }
}
"""


def test_constructor_injection_snippet_parses():
    ctor = make_method("DogPenCND", is_constructor=True, params=("Dog",), accesses=("dog",))
    model = make_class("DogPenCND", fields=(("dog", "Dog"),), methods=(ctor,), line_count=6)
    assert parse_text(CND_SNIPPET) == ([model._replace(path="Test.java", column=14)], [])


MULTI_CLASS_SOURCE = """\
// header: two classes, literals that hold comment markers
public class A extends Base implements I, J {
    private B b;
    private String s;
    public A(B b) {
        this.b = b;
    }
    public String name() {
        String t = "x // not a comment";
        char c = '/';
        return t;
    }
    public B[] many(B[] arr) {
        B[] out = arr;
        return out;
    }
}
/* block */
class B {
    public void go(A a) {
        a.name();
        new A(this);
    }
}
"""


def test_every_prefix_parses_or_fails_with_one_error():
    """Truncation at any point, including one token before end of file where
    the parser looks one token ahead, yields a strict-mode result."""
    models, diagnostics = parse_text(MULTI_CLASS_SOURCE)
    assert diagnostics == [] and [m.name for m in models] == ["A", "B"]
    for end in range(len(MULTI_CLASS_SOURCE) + 1):
        models, diagnostics = parse_text(MULTI_CLASS_SOURCE[:end])
        if diagnostics:
            assert models == [], end
            assert len(diagnostics) == 1 and diagnostics[0].severity == "error", end


RECEIVER_ACCESS_SOURCE = """\
class A {
    private B b;
    public void f() { b.g(); }
    public int h() { int v = b.n; return v; }
    public void k() { B x = b; }
}
class B {
    public int n;
    public void g() { }
}
"""
B_G = {("B", "g")}
# (source, {method of its first class: (the calls it makes, the fields it accesses)})
BINDING_CASES = {
    "test_local_static_typing_resolves_receivers": [("""\
public class Pen {
    private Dog dog;
    public Pen(Dog dog) {
        this.dog = dog;
    }
    public String describe(Cat visitor) {
        Dog local = this.dog;
        local.bark();
        visitor.meow();
        dog.fetch();
        this.describe(visitor);
        return local.name;
    }
}
""", {"describe": ({("Dog", "bark"), ("Cat", "meow"), ("Dog", "fetch"), ("Pen", "describe")},
                  {"dog"})})],
    # the setter accesses x only through its this.x write, the getter by an unqualified read
    "test_parameter_shadows_field": [("""\
public class C {
    private int x;
    public void set(int x) {
        this.x = x;
    }
    public int get() {
        return x;
    }
}
""", {"set": (set(), {"x"}), "get": (set(), {"x"})})],
    "test_local_shadows_field_from_its_declaration_on": [("""\
public class C {
    private Dog pet;
    public void m() {
        pet.fetch();
        Cat pet = null;
        pet.meow();
    }
}
""", {"m": ({("Dog", "fetch"), ("Cat", "meow")}, {"pet"})})],
    "test_field_used_as_call_receiver_is_accessed": [(RECEIVER_ACCESS_SOURCE, {"f": (B_G, {"b"})})],
    # a read through a receiver, and a bare read, as before
    "test_field_used_as_field_read_receiver_is_accessed": [
        (RECEIVER_ACCESS_SOURCE, {"h": (set(), {"b"}), "k": (set(), {"b"})}),
    ],
    "test_parameter_local_or_shadowing_receiver_accesses_nothing": [("""\
class A {
    private B b;
    public void p(B other) { other.g(); int v = other.n; }
    public void q() { B local = null; local.g(); local.n = 1; }
    public void r(B b) { b.g(); int v = b.n; }
    public void s() { B b = null; b.g(); b.n = 1; }
}
""", {"p": (B_G, set()), "q": (B_G, set()), "r": (B_G, set()), "s": (B_G, set())})],
}


def _check_binding(text, methods):
    models, diagnostics = parse_text(text)
    assert diagnostics == []
    found = {m.name: (m.invoked_methods, m.accessed_fields) for m in models[0].methods}
    assert {name: found[name] for name in methods} == methods


globals().update(named_tests(_check_binding, BINDING_CASES))


def test_array_types_resolve_to_element_type():
    assert [base_type_name(name) for name in ("Dog[]", "Dog[][]", "Dog")] == ["Dog"] * 3
    models, diagnostics = parse_text(
        "public class Kennel {\n    private Dog[] dogs;\n    public void keep(Dog[] more) {\n        this.dogs = more;\n    }\n}\n"
    )
    assert diagnostics == []
    assert models[0].fields[0].type_name == "Dog[]"
    assert models[0].methods[0].param_types == ("Dog[]",)


def test_multiple_classes_per_file_and_supertypes():
    text = """\
public class Base {
}
public class Derived extends Base implements Walks, Barks {
}
"""
    models, diagnostics = parse_text(text)
    assert diagnostics == []
    assert [m.name for m in models] == ["Base", "Derived"]
    assert models[1].super_types == ("Base", "Walks", "Barks")


DOG_PENS = ["Dog"] + [f"DogPen{i}" for i in range(1, 11)]
# (files of one class each, the class names in the order resolve_project gives)
RESOLVE_CASES = {
    "test_resolve_project_collects_names": [
        ([f"public class {name} {{\n}}\n" for name in DOG_PENS], sorted(DOG_PENS)),
    ],
    "test_resolve_project_orders_classes_by_name": [
        ([f"class {name} {{\n}}\n" for name in ("Pen", "Dog", "Cat")], ["Cat", "Dog", "Pen"]),
    ],
    "test_resolve_project_empty_is_valid": [([], [])],
}


def _check_resolve(texts, names):
    models = [model for i, text in enumerate(texts) for model in parse_text(text, f"F{i}.java")[0]]
    project, diagnostics = resolve_project(models)
    assert (diagnostics, project) == ([], tuple(sorted(models, key=lambda model: model.name)))
    assert [model.name for model in project] == names


globals().update(named_tests(_check_resolve, RESOLVE_CASES))


def test_duplicate_class_declarations_are_diagnosed():
    first, _ = parse_text("public class A {\n}\n", path="one/A.java")
    second, _ = parse_text("class B {\n}\n\n  public class A {\n}\n", path="two/A.java")
    project, diagnostics = resolve_project(first + second)
    assert project is None
    # at the second declaration's class name
    message = "duplicate class 'A' (also declared in one/A.java)"
    assert diagnostics == [("two/A.java", 4, 16, message, "error")]


STAND_ALONE = "only method calls and object creations can stand alone as statements"
TOO_DEEP = f"argument lists nested more than {MAX_EXPRESSION_NESTING} deep"
NESTED = "new A(" * (MAX_EXPRESSION_NESTING + 1) + ")" * (MAX_EXPRESSION_NESTING + 1)
# a class whose line 5 holds, from column 9, the one statement ``{0}null{1};``
NESTING = "class A {{\n    A(A a) {{\n    }}\n    void m() {{\n        {0}null{1};\n    }}\n}}\n"
UNQUALIFIED = "unqualified call to '{}' is not supported (use an explicit receiver)"
IN_C = "public class C {{\n    {}\n}}\n".format  # one member, on line 2 of a class C
# (source, the (line, column, message) of its one error, or the name of the one
# class it parses to)
PARSE_CASES = {"test_error_precedence_and_binding_order": [
    # an assignment's value is checked before its target
    ("class C {\n  void m() { zz = yy; }\n}\n", (2, 19, "unknown name 'yy'")),
    ("class C {\n  void m(C a) { a.f = this.g; }\n}\n", (2, 28, "unknown field 'g'")),
    ("class C {\n  void m() { zz.f = new C(); }\n}\n", (2, 14, "unknown name 'zz'")),
    # a local is not in scope in its own initializer
    ("class C {\n  void m() {\n    Dog d = d;\n  }\n}\n", (3, 13, "unknown name 'd'")),
    ("class C {\n  void m(Dog d) { Dog d = null; }\n}\n", (2, 23, "duplicate variable 'd'")),
    # parameters and locals share one scope per method
    ("class C {\n  void m(C a, C a) { }\n}\n", (2, 17, "duplicate parameter 'a'")),
    ("class C {\n  void m() { C x = null; C x = null; }\n}\n", (2, 28, "duplicate variable 'x'")),
    # a receiver used before its local is declared is not in scope
    ("class C {\n  void m() { x.go(); C x = null; }\n}\n", (2, 14, "unknown name 'x'")),
    # a syntax error later in the file beats a name error in an earlier class
    ("class A {\n  A m() { return ghost; }\n}\nclass B {\n  void m() { x x x; }\n}\n",
     (5, 18, "expected ';', found 'x'")),
    # ... and a lexical error beats both
    ("class A {\n  void m() { x x x; }\n}\n#", (4, 1, "unsupported character '#'")),
    # fields and methods declared after their use resolve
    ("class C {\n  C m() { this.n(); f.go(); return f; }\n  void n() { }\n  C f;\n}\n", "C"),
    # a call through this names a declared method, reported at the method name
    ("class C {\n  void m() { this.zz(); }\n}\n", (2, 19, "unknown method 'zz'")),
    ("class C {\n  void m() { this.zz(yy); }\n}\n", (2, 19, "unknown method 'zz'")),
    # a call's receiver is checked before its arguments, arguments left to right
    ("class C {\n  void m() { zz.go(yy); }\n}\n", (2, 14, "unknown name 'zz'")),
    ("class C {\n  void m(C a) { a.go(new C(yy), xx); }\n}\n", (2, 28, "unknown name 'yy'")),
    # name errors come class by class in source order
    ("class A {\n  void m() { return p; }\n}\nclass B {\n  void m() { return q; }\n}\n",
     (2, 21, "unknown name 'p'")),
    ("class A {\n  C f;\n  C f;\n  void m() { return p; }\n}\n", (3, 5, "duplicate field 'f'")),
    # every syntax message of the parser, at the token it names
    ("class A {\n  C f;\n", (3, 1, "unexpected end of file in class body")),
    ("class A {\n  void m() {\n", (3, 1, "unexpected end of file in method body")),
    ("class A {\n  void f;\n}\n", (2, 8, "a field cannot have type void")),
    ("class A {\n  int x = 1;\n}\n", (2, 9, "field initializers are not supported")),
    ("class A {\n  int x }\n", (2, 9, "expected '(' or ';' after member name, found '}'")),
    ("class A {\n  void m() { 1; }\n}\n", (2, 14, "expected statement, found '1'")),
    ("class A {\n  void m() { return ); }\n}\n", (2, 21, "expected expression, found ')'")),
    ("class A { void f() { return; } }", "A"),  # a bare return has no expression
    ("class A {\n  void m() { new A() = null; }\n}\n", (2, 22, "invalid assignment target")),
    ("class A {\n  void m(A a) { a; }\n}\n", (2, 18, STAND_ALONE)),
    ("class A {\n  void m() { this.f; }\n}\n", (2, 20, STAND_ALONE)),
    (f"class A {{\n  void m() {{ return {NESTED}; }}\n}}\n",
     (2, 26 + len("new A(") * MAX_EXPRESSION_NESTING, TOO_DEEP)),  # the first list too deep
    ("class A extends { }\n", (1, 17, "expected superclass name, found '{'")),
    ("class A implements { }\n", (1, 20, "expected interface name, found '{'")),
    ("class A implements B, { }\n", (1, 23, "expected interface name, found '{'")),
    ("class A {\n  int ;\n}\n", (2, 7, "expected member name, found ';'")),
    ("class A {\n  void m() { this.(); }\n}\n", (2, 19, "expected member name, found '('")),
    ("class A {\n  public ;\n}\n", (2, 10, "expected type name, found ';'")),
    ("class A {\n  void m() { new 1(); }\n}\n", (2, 18, "expected type name, found '1'")),
    ("class A {\n  void m(A) { }\n}\n", (2, 11, "expected parameter name, found ')'")),
    ("class A {\n  void m() { A[] ; }\n}\n", (2, 18, "expected variable name, found ';'")),
    ("public A { }\n", (1, 8, "expected 'class', found 'A'")),
    ("class A B { }\n", (1, 9, "expected '{', found 'B'")),
    ("class A {\n  void m() ;\n}\n", (2, 12, "expected '{', found ';'")),
    ("class A {\n  B[ f;\n}\n", (2, 6, "expected ']', found 'f'")),  # a field's type
    ("class A {\n  void m(B[ b) { }\n}\n", (2, 13, "expected ']', found 'b'")),
    ("class A {\n  void m() { B[][ x; }\n}\n", (2, 19, "expected ']', found 'x'")),  # a local's
    ("class A {\n  void m(B b { }\n}\n", (2, 14, "expected ')', found '{'")),
    ("class A {\n  void m(A a) { a.f(a; }\n}\n", (2, 22, "expected ')', found ';'")),
    ("class A {\n  void m() { new A; }\n}\n", (2, 19, "expected '(', found ';'")),
    # a keyword is a whole word, not a prefix
    ("class new { }", (1, 7, "expected class name, found 'new'")),
    ("class newer { classy f; }", "newer"),
    # each argument list left lowers the nesting depth again
    ("class A {\n  A(A a) { }\n  void m() { " + "new A(null); " * 101 + "}\n}\n", "A"),
], "test_lambda_is_rejected_with_one_diagnostic": [
    ("public class Broken {\n    public void run(Handler h) {\n        h.accept(x -> x);\n"
     "    }\n}\n", (3, 20, "unsupported character '-'")),
], "test_unsupported_constructs_each_fail_strictly": [
    (IN_C("public int add(int a, int b) { return a + b; }"), (2, 45, "unsupported character '+'")),
    (IN_C("public List<Dog> dogs() { return null; }"), (2, 16, "unsupported character '<'")),
    (IN_C("private Dog dog = new Dog();"), (2, 21, "field initializers are not supported")),
    (IN_C("public void go() { if (true) { return; } }"), (2, 24, UNQUALIFIED.format("if"))),
    (IN_C("public void go() { helper(); }"), (2, 24, UNQUALIFIED.format("helper"))),
    (IN_C("public void go() { a.b.c(); }"), (2, 27, "expected ';', found '.'")),
], "test_unknown_names_are_rejected": [
    (IN_C("public void go() { this.missing = null; }"), (2, 29, "unknown field 'missing'")),
    (IN_C("public void go() { return ghost; }"), (2, 31, "unknown name 'ghost'")),
    (IN_C("public void go() { Dog d = d; }"), (2, 32, "unknown name 'd'")),
], "test_tokens_are_ascii_and_literals_stay_on_one_line": [
    ("class Caf\u00e9 { }", (1, 10, "unsupported character '\u00e9'")),
    ("class C { int x\u00b2; }", (1, 16, "unsupported character '\u00b2'")),
    ("class C { int f() { return \u0663; } }", (1, 28, "unsupported character '\u0663'")),
    # a backslash does not carry a literal onto the next line
    ('class C {\n  String s() {\n    return "a\\\nb";\n  }\n}\n',
     (3, 12, "unterminated string literal")),
    ("class C {\n  char c() { return '\\\n'; }\n}\n", (2, 21, "unterminated char literal")),
    ('class A { "\\', (1, 11, "unterminated string literal")),
    # an escaped quote still stays inside its literal
    ('class C {\n  String s() { return "\\"\\\\"; }\n}\n', "C"),
], "test_expression_nesting_limit_is_one_positioned_error": [
    # an error at the opening parenthesis of the first argument list past the limit
    (NESTING.format("new A(" * depth, ")" * depth),
     "A" if depth == MAX_EXPRESSION_NESTING else (5, 9 + 6 * MAX_EXPRESSION_NESTING + 5, TOO_DEEP))
    for depth in (MAX_EXPRESSION_NESTING, MAX_EXPRESSION_NESTING + 1, 5000)
]}


def _check_parse(text, expected):
    models, diagnostics = parse_text(text)
    if isinstance(expected, str):
        assert diagnostics == [] and [model.name for model in models] == [expected], text
    else:
        assert models == [], text
        found = [(d.severity, d.line, d.column, d.message) for d in diagnostics]
        assert found == [("error", *expected)], text


globals().update(named_tests(_check_parse, PARSE_CASES))


TOKEN_CASES = [
    # a tab and a bare CR are one column each; neither ends the line
    ("\ta\rb", [("a", 1, 2), ("b", 1, 4), ("", 1, 5)]),
    # a block comment that spans lines moves the next token to its last line
    ("a /* x\n y */ b", [("a", 1, 1), ("b", 2, 7), ("", 2, 8)]),
    ("$x _x", [("$x", 1, 1), ("_x", 1, 4), ("", 1, 6)]),
    ("newer classy new", [("newer", 1, 1), ("classy", 1, 7), ("new", 1, 14), ("", 1, 17)]),
    ("1.5 1. .5", [
        ("1.5", 1, 1), ("1", 1, 5), (".", 1, 6), (".", 1, 8), ("5", 1, 9), ("", 1, 10),
    ]),
    ('"a\\"b" \'\\\'\' "// /* */"', [
        ('"a\\"b"', 1, 1), ("'\\''", 1, 8), ('"// /* */"', 1, 13), ("", 1, 23),
    ]),
    # a trailing line comment without a final newline: EOF after its last character
    ("x // c", [("x", 1, 1), ("", 1, 7)]),
]


def _words_and_positions(tokens):
    positions = tokens.positions(range(len(tokens)))
    return [(word, line, col) for word, (line, col) in zip(tokens.words, positions)]


def test_tokenize_kinds_and_positions():
    for text, expected in TOKEN_CASES:
        assert _words_and_positions(tokenize(text)) == expected, text


def _check_fails_in_linear_time(text, expected):
    """``text`` gives the one ``(line, column, message)`` error, within 1 s."""
    started = time.perf_counter()
    _, diagnostics = parse_text(text)
    elapsed = time.perf_counter() - started
    assert [(d.line, d.column, d.message) for d in diagnostics] == [expected], expected
    assert elapsed < 1.0, f"lexing {len(text):,} characters took {elapsed:.2f}s"


LINEAR_TIME_CASES = {
    "test_unterminated_literal_fails_in_linear_time": [
        ('class A { ' + '"\\' * 20000, (1, 11, "unterminated string literal")),
    ],
    "test_lexical_error_after_a_long_run_fails_in_linear_time": [
        ("class A { /*" + "*" * 40000, (1, 11, "unterminated block comment")),
        ("class A {" + " " * 40000 + "#", (1, 40010, "unsupported character '#'")),
        ("class A {" + " /**/\n// c\n" * 10000 + "#", (20001, 1, "unsupported character '#'")),
        ("class A {" + "/**/" * 20000 + "#", (1, 80010, "unsupported character '#'")),
    ],
}
globals().update(named_tests(_check_fails_in_linear_time, LINEAR_TIME_CASES))


def test_parse_time_is_linear_in_classes_per_file():
    # catches a class-name position computed by a scan from the start of the
    # file for each class, which makes one file of many classes quadratic
    # (about 17 s on a 2-vCPU Xeon VM, against 0.35 s for one forward pass)
    text = "".join(
        f"class C{i} {{\n  C{i} f;\n  void m(C{i} p) {{ this.f = p; }}\n}}\n" for i in range(4000)
    )
    started = time.perf_counter()
    models, diagnostics = parse_text(text)
    elapsed = time.perf_counter() - started
    assert diagnostics == [] and len(models) == 4000
    assert (models[-1].line, models[-1].column) == (4 * 3999 + 1, 7)
    assert elapsed < 5.0, f"parsing 4,000 classes in one file took {elapsed:.2f}s"


# The token pattern as it was before its quantifiers became possessive: the
# plain greedy and lazy form, the oracle for the words, skips and error of
# ``tokenize``.
_BACKTRACKING_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*)"
    r"(?:([A-Za-z_$][A-Za-z0-9_$]*|[0-9]+(?:\.[0-9]+)?"
    r"""|"(?:[^"\\\n]|\\[^\n])*"|'(?:[^'\\\n]|\\[^\n])*'|[{}()\[\];,.=])|(.*))""",
    re.DOTALL,
)


def _findall_stream(text):
    """The words, skips and error of ``text`` from ``_BACKTRACKING_TOKEN.findall``:
    one (skip, token, rest) tuple per match, the second end of file dropped."""
    matches = _BACKTRACKING_TOKEN.findall(text)
    if len(matches) > 1 and not matches[-2][1]:
        matches.pop()
    rest = matches[-1][2]
    errors = {"/*": "unterminated block comment", '"': "unterminated string literal",
              "'": "unterminated char literal"}
    error = errors.get(rest[:2], errors.get(rest[:1], f"unsupported character {rest[:1]!r}"))
    return [m[1] for m in matches], [m[0] for m in matches], error if rest else None


def _checked_tokens(text):
    """``tokenize(text)``, once its stream is checked against the oracle."""
    tokens = tokenize(text)
    assert (list(tokens.words), list(tokens.skips), tokens.error) == _findall_stream(text), text
    return tokens


# comment and literal edges, the empty text, a trailing skip, a lexical error
# after a skip, each kind of unterminated token, a text that ends in a token,
# and at the end of the text a complete literal, an unterminated literal that
# ends in a quote, and a comment with no newline after it
_STREAM_EDGES = [
    "x /*/ y", "/* a */* b */", "/***/", "/* ** */", "a/**/b", "1.", "1.2.3",
    "'\\'", "'\\\\'", '"a\\"b"', '"a\\\\"b"',
    "", "  ", "a  ", "a # b", "a /* x", 'a "x', "a 'x", "#", "class A { }",
    'x "a"', '"a\n"', "a //c", "a /**/",
]


def test_token_stream_matches_the_findall_tuples_at_the_end_of_file():
    for text in _STREAM_EDGES:
        _checked_tokens(text)


@given(token_sequences())
def test_token_stream_matches_the_findall_tuples(text):
    _checked_tokens(text)


@given(token_sequences())
def test_positions_point_at_their_tokens(text):
    """Every token, class and diagnostic at its place in the text."""
    lines = text.split("\n")
    for word, line, col in _words_and_positions(tokenize(text)):
        assert lines[line - 1][col - 1 :].startswith(word), (word, line, col)
    models, diagnostics = parse_text(text)
    for model in models:
        assert lines[model.line - 1][model.column - 1 :].startswith(model.name), model.name
    for diag in diagnostics:
        assert 1 <= diag.line <= len(lines), diag
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1, diag


@given(token_sequences())
def test_any_token_sequence_gives_models_or_one_error(text):
    models, diagnostics = parse_text(text)
    if diagnostics:
        [diag] = diagnostics
        assert models == [] and diag.severity == "error", diagnostics


OWNER_FILE = """\
class Owner {
    Pet friend;
    Pet[] litter;
    Owner(Pet friend) { this.friend = friend; }
    void walk() { friend.run(); }
}
"""
PET_FILE = """\
class Pet {
    Owner friend;
    void run() { friend.walk(); }
    void adopt(Pet[] litter) { }
}
"""


def test_models_hold_one_object_per_name_and_per_empty_set():
    """Two files' models share each name's string and one empty set, and
    parsing the same files again adds nothing to the process's name table."""
    [owner], _ = parse_text(OWNER_FILE, "Owner.java")
    [pet], _ = parse_text(PET_FILE, "Pet.java")
    ctor, walk = owner.methods
    run, adopt = pet.methods
    assert owner.name is pet.fields[0].type_name and pet.name is owner.fields[0].type_name
    assert owner.fields[1].type_name is adopt.param_types[0]  # "Pet[]"
    [(walk_owner, walk_name)] = run.invoked_methods
    [(run_owner, run_name)] = walk.invoked_methods
    assert walk_owner is owner.name and walk_name is walk.name
    assert run_owner is pet.name and run_name is run.name
    [accessed] = {id(name) for method in (ctor, walk, run) for name in method.accessed_fields}
    assert accessed == id(owner.fields[0].name) == id(pet.fields[0].name)
    empties = [ctor.invoked_methods, adopt.invoked_methods, adopt.accessed_fields]
    assert empties[0] == frozenset() and all(empty is empties[0] for empty in empties)
    size = len(frontend._NAMES)
    again = parse_text(OWNER_FILE, "Owner.java")[0] + parse_text(PET_FILE, "Pet.java")[0]
    assert again == [owner, pet]
    assert len(frontend._NAMES) == size


# (text, each class's LOC, the file's LOC): the models' line counts, and the
# LOC columns that analysis computes from them
LOC_CASES = {
    "test_empty_file_yields_no_models_and_no_diagnostics": [("", [], 0)],
    "test_comments_and_blank_lines_are_skipped": [(
        "// leading comment\npublic class C { /* inline */\n\n    private int x; // trailing\n"
        "    /* block\n       spanning lines */\n    public C() {\n        this.x = 1;\n    }\n}\n",
        [6], 6,
    )],
    "test_comment_markers_inside_strings_do_not_comment": [
        ('public class C {\n    public String s() {\n        return "a // b /* c";\n    }\n}\n',
         [5], 5),
    ],
    "test_lines_end_only_at_newline": [
        # a bare CR is whitespace, as it is for diagnostic positions
        ("class A {\r int x;\r}\r", [1], 1),
        # a form feed inside a string literal does not end the line
        ('class A {\n String s() {\n return "\f"; }\n}\n', [4], 4),
    ],
}


def _check_loc(text, class_locs, file_loc):
    models, diagnostics = parse_text(text)
    assert diagnostics == [], text
    lines = [(model.line_count, model.file_line_count) for model in models]
    assert lines == [(loc, file_loc) for loc in class_locs], text
    metrics = analyze_project_model(resolve_project(models)[0], "project").metrics
    assert ([cm.loc for cm in metrics.class_metrics], metrics.total_loc) == (class_locs, file_loc)


globals().update(named_tests(_check_loc, LOC_CASES))


def test_a_bare_cr_on_disk_is_whitespace(tmp_path):
    # read as text mode would, a bare CR became a line break and LOC 3, and a
    # CR inside a char literal left it unterminated
    (tmp_path / "A.java").write_bytes(b"class A {\r int x;\r}\r")
    (tmp_path / "B.java").write_bytes(b"class B {\r char c() { return '\r'; }\r}\r")
    analysis, diagnostics = analyze_directory(tmp_path)
    assert diagnostics == []
    assert [cm.loc for cm in analysis.metrics.class_metrics] == [1, 1]
    assert analysis.metrics.total_loc == 2


def test_file_loc_counts_the_lines_of_all_its_classes(tmp_path):
    (tmp_path / "AB.java").write_text("class A {} class B {\n}")
    (tmp_path / "C.java").write_text("class C {\n\n  // c\n}\n")
    models = {
        model.name: model
        for name in ("AB.java", "C.java")
        for model in parse_source(SourceFile(name, (tmp_path / name).read_text()))[0]
    }
    assert {name: m.line_count for name, m in models.items()} == {"A": 1, "B": 2, "C": 2}
    assert {name: m.file_line_count for name, m in models.items()} == {"A": 2, "B": 2, "C": 2}
    analysis, diagnostics = analyze_directory(tmp_path)
    assert diagnostics == []
    assert [cm.loc for cm in analysis.metrics.class_metrics] == [1, 2, 2]
    assert analysis.metrics.total_loc == 4


def test_discovery_skips_hidden_and_symlinked_directories(tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    (other / "D.java").write_text("class D {\n}\n")
    project = tmp_path / "project"
    for directory in ("sub", ".hidden", "real.java", "a", "a-b"):
        (project / directory).mkdir(parents=True)
    for name in (
        "A.java", "sub/B.java", ".hidden/C.java", "real.java/F.java", "notes.txt",
        "a-b/X.java", "a/Y.java",
    ):
        (project / name).write_text("")
    (project / "linked").symlink_to(other)  # a symlinked directory is not entered
    (project / "Dir.java").symlink_to(other)  # nor is it a file
    (project / "Link.java").symlink_to(other / "D.java")
    (project / "Broken.java").symlink_to(tmp_path / "missing.java")
    (project / "Loop.java").symlink_to(project / "Loop.java")
    found = [p.relative_to(project).as_posix() for p in discover_source_files(project)]
    # in the order of the paths' parts: a/ before a-b/, though '-' < '/'; the
    # order decides which of two classes of one name is the duplicate
    assert found == [
        "A.java", "Broken.java", "Link.java", "Loop.java", "a/Y.java", "a-b/X.java",
        "real.java/F.java", "sub/B.java",
    ]


def test_a_file_that_grew_after_its_stat_is_read_to_its_end(tmp_path, monkeypatch):
    path = tmp_path / "A.java"
    text = "class A {\n}\n" + "// more than one read\n" * 60000
    path.write_text(text)
    stat = os.stat

    def stale_stat(target, *args, **kwargs):  # the size before the file grew
        found = stat(target, *args, **kwargs)
        return os.stat_result((*found[:6], 10, *found[7:10]))

    monkeypatch.setattr(os, "stat", stale_stat)
    assert load_source_file(path).text == text


def test_a_short_read_is_read_on_to_the_end(tmp_path, monkeypatch):
    """A read may return less than it asked for: Linux reads at most 0x7ffff000 bytes."""
    path = tmp_path / "A.java"
    text = "class A {\n}\n" + "// c\n" * 2000
    path.write_text(text)
    read = os.read
    monkeypatch.setattr(os, "read", lambda fd, size: read(fd, min(size, 4096)))
    assert load_source_file(path).text == text


# An oracle for file LOC that shares no code with the lexer: blank out every
# comment with a regex (string and char literals are matched first, so the
# comment markers they hold survive) and count the lines left non-blank.
_LITERAL_OR_COMMENT = re.compile(
    r'"(?:\\.|[^"\\\n])*"' r"|'(?:\\.|[^'\\\n])*'" r"|//[^\n]*|/\*.*?\*/", re.DOTALL
)


def _regex_loc(text):
    def blank(match):
        lexeme = match.group()
        return lexeme if lexeme[0] in "\"'" else re.sub(r"[^\n]", " ", lexeme)

    stripped = _LITERAL_OR_COMMENT.sub(blank, text)
    return sum(1 for line in stripped.split("\n") if line.strip())


_COMMENTS = [
    "// line comment",
    '// "quote" and /* opener',
    "/* inline */",
    "/* block\n   spanning lines */",
    "/*\n\n*/",
    "/** doc\n * with 'quote'\n */",
    "/* // nested marker */",
    "/*/ still open */",
]
_MEMBERS = [
    "private int f{i};",
    'public String s{i}() { return "// not a comment /* nor this"; }',
    "public char c{i}() { return '/'; }",
    "public char q{i}() { return '\\''; }",
    'public String e{i}() { return "\\" // still a string */"; }',
    "public int n{i}() {\n return 42;\n }",
]
_SEPARATORS = [" ", "\n", "\n\n", "\t\n  \n", " \t"]


# what may stand between two classes: a class can start on the line where the
# one before it ends (``} class B {``), or after a block comment spanning lines
_BETWEEN_CLASSES = [" ", "\n", "\n\n", " /* a\n\n b */ ", "\n/* between\n   classes */\n"]


@st.composite
def comment_heavy_sources(draw):
    """A file of one to three classes, and the text of each class from its
    first token to its closing brace."""
    pieces = [draw(st.sampled_from(["", "\n \t\n", "// header\n", "/* header */ "]))]
    classes = []
    items = st.one_of(st.sampled_from(_COMMENTS), st.sampled_from(_MEMBERS))
    for number in range(draw(st.integers(min_value=1, max_value=3))):
        if number:
            pieces.append(draw(st.sampled_from(_BETWEEN_CLASSES)))
        body = [draw(st.sampled_from(["public class", "class"])) + f" C{number} {{"]
        for index, item in enumerate(draw(st.lists(items, max_size=12))):
            body.append(draw(st.sampled_from(_SEPARATORS)))
            # a line comment must end before any code that follows it
            body.append(item.replace("{i}", str(index)) + ("\n" if item.startswith("//") else ""))
        body.append(draw(st.sampled_from(_SEPARATORS)) + "}")
        classes.append("".join(body))
        pieces.append(classes[-1])
    pieces.append(draw(st.sampled_from(["", "\n", "\n\t \n", " /* trailer */\n", "\n// end"])))
    return "".join(pieces), classes


@given(comment_heavy_sources())
def test_file_loc_matches_regex_comment_stripper(source):
    text, classes = source
    models, diagnostics = parse_text(text)
    assert diagnostics == []
    assert [model.file_line_count for model in models] == [_regex_loc(text)] * len(classes)
    # a class's tokens span every code line of its own text
    assert [model.line_count for model in models] == [_regex_loc(c) for c in classes]

