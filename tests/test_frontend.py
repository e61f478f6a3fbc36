"""Frontend tests: lexing, strict parsing, line counting, resolution."""
from __future__ import annotations

import random
import re
import time

from hypothesis import given
from hypothesis import strategies as st

from dimetrics.analysis import analyze_directory, analyze_project_model
from dimetrics.frontend import (
    MAX_EXPRESSION_NESTING,
    SourceFile,
    base_type_name,
    discover_source_files,
    parse_source,
    resolve_project,
    tokenize,
)

from conftest import parse_text

CND_SNIPPET = """\
public class DogPenCND {
    private Dog dog;
    public DogPenCND(Dog dog) {
        this.dog = dog;
    }
}
"""


def test_constructor_injection_snippet_parses():
    models, diagnostics = parse_text(CND_SNIPPET)
    assert diagnostics == []
    assert len(models) == 1
    model = models[0]
    assert model.name == "DogPenCND"
    assert [f.name for f in model.fields] == ["dog"]
    ctor = model.methods[0]
    assert ctor.is_constructor
    assert ctor.name == "DogPenCND"
    assert ctor.param_types == ("Dog",)
    assert ctor.accessed_fields == frozenset({"dog"})
    assert ctor.instantiated_types == ()


def test_empty_file_yields_no_models_and_no_diagnostics():
    models, diagnostics = parse_text("")
    assert models == []
    assert diagnostics == []


def test_lambda_is_rejected_with_one_diagnostic():
    text = """\
public class Broken {
    public void run(Handler h) {
        h.accept(x -> x);
    }
}
"""
    models, diagnostics = parse_text(text)
    assert models == []
    assert len(diagnostics) == 1
    diag = diagnostics[0]
    assert diag.severity == "error"
    assert diag.line == 3
    assert "'-'" in diag.message


def test_unsupported_constructs_each_fail_strictly():
    bad_bodies = [
        "public int add(int a, int b) { return a + b; }",  # operator
        "public List<Dog> dogs() { return null; }",  # generics
        "private Dog dog = new Dog();",  # field initializer
        "public void go() { if (true) { return; } }",  # control flow
        "public void go() { helper(); }",  # unqualified call
        "public void go() { a.b.c(); }",  # chained receiver
    ]
    for body in bad_bodies:
        models, diagnostics = parse_text("public class C {\n    %s\n}\n" % body)
        assert models == [], body
        assert len(diagnostics) == 1, body


def test_unknown_names_are_rejected():
    for body, fragment in [
        ("public void go() { this.missing = null; }", "missing"),
        ("public void go() { return ghost; }", "ghost"),
        ("public void go() { Dog d = d; }", "d"),
    ]:
        models, diagnostics = parse_text("public class C {\n    %s\n}\n" % body)
        assert models == []
        assert fragment in diagnostics[0].message


def test_comments_and_blank_lines_are_skipped():
    text = """\
// leading comment
public class C { /* inline */

    private int x; // trailing
    /* block
       spanning lines */
    public C() {
        this.x = 1;
    }
}
"""
    models, diagnostics = parse_text(text)
    assert diagnostics == []
    assert models[0].line_count == 6
    assert models[0].file_line_count == 6


def test_comment_markers_inside_strings_do_not_comment():
    text = 'public class C {\n    public String s() {\n        return "a // b /* c";\n    }\n}\n'
    models, diagnostics = parse_text(text)
    assert diagnostics == []
    assert models[0].file_line_count == 5


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


def test_local_static_typing_resolves_receivers():
    text = """\
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
"""
    models, diagnostics = parse_text(text)
    assert diagnostics == []
    method = models[0].methods[1]
    assert method.invoked_methods == frozenset(
        {("Dog", "bark"), ("Cat", "meow"), ("Dog", "fetch"), ("Pen", "describe")}
    )
    assert method.accessed_fields == frozenset({"dog"})


def test_parameter_shadows_field():
    text = """\
public class C {
    private int x;
    public void set(int x) {
        this.x = x;
    }
    public int get() {
        return x;
    }
}
"""
    models, _ = parse_text(text)
    setter, getter = models[0].methods
    assert setter.accessed_fields == frozenset({"x"})  # only the this.x write
    assert getter.accessed_fields == frozenset({"x"})  # unqualified field read


def test_array_types_resolve_to_element_type():
    assert base_type_name("Dog[]") == "Dog"
    assert base_type_name("Dog[][]") == "Dog"
    assert base_type_name("Dog") == "Dog"
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


def test_resolve_project_collects_names():
    models = []
    for name in ["Dog"] + [f"DogPen{i}" for i in range(1, 11)]:
        parsed, _ = parse_text(f"public class {name} {{\n}}\n", path=f"{name}.java")
        models.extend(parsed)
    project, diagnostics = resolve_project(models)
    assert diagnostics == []
    assert len(project.class_names) == 11


def test_resolve_project_orders_classes_by_name():
    models = []
    for name in ["Pen", "Dog", "Cat"]:
        models.extend(parse_text(f"class {name} {{\n}}\n", path=f"{name}.java")[0])
    project, diagnostics = resolve_project(models)
    assert diagnostics == []
    assert [model.name for model in project.classes] == ["Cat", "Dog", "Pen"]


def test_resolve_project_empty_is_valid():
    project, diagnostics = resolve_project([])
    assert diagnostics == []
    assert project.classes == ()


def test_duplicate_class_names_are_diagnosed():
    first, _ = parse_text("public class A {\n}\n", path="one/A.java")
    second, _ = parse_text("class B {\n}\n\n  public class A {\n}\n", path="two/A.java")
    project, diagnostics = resolve_project(first + second)
    assert project is None
    assert len(diagnostics) == 1
    assert "one/A.java" in diagnostics[0].message
    assert diagnostics[0].path == "two/A.java"
    # at the second declaration's class name
    assert (diagnostics[0].line, diagnostics[0].column) == (4, 16)


# (source, expected (line, column, message)); None means the file parses
ERROR_PRECEDENCE_CASES = [
    # an assignment's value is checked before its target
    ("class C {\n  void m() { zz = yy; }\n}\n", (2, 19, "unknown name 'yy'")),
    ("class C {\n  void m(C a) { a.f = this.g; }\n}\n", (2, 28, "unknown field 'g'")),
    ("class C {\n  void m() { zz.f = new C(); }\n}\n", (2, 14, "unknown name 'zz'")),
    # a local is not in scope in its own initializer
    ("class C {\n  void m() {\n    Dog d = d;\n  }\n}\n", (3, 13, "unknown name 'd'")),
    ("class C {\n  void m(Dog d) { Dog d = null; }\n}\n", (2, 23, "duplicate variable 'd'")),
    # a syntax error later in the file beats a name error in an earlier class
    ("class A {\n  A m() { return ghost; }\n}\nclass B {\n  void m() { x x x; }\n}\n",
     (5, 18, "expected ';', found 'x'")),
    # ... and a lexical error beats both
    ("class A {\n  void m() { x x x; }\n}\n#", (4, 1, "unsupported character '#'")),
    # fields and methods declared after their use resolve
    ("class C {\n  C m() { this.n(); f.go(); return f; }\n  void n() { }\n  C f;\n}\n", None),
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
]


def test_error_precedence_and_binding_order():
    for text, expected in ERROR_PRECEDENCE_CASES:
        models, diagnostics = parse_text(text)
        if expected is None:
            assert diagnostics == [] and len(models) == 1, text
            continue
        assert models == [], text
        assert [(d.line, d.column, d.message) for d in diagnostics] == [expected], text


def test_tokens_are_ascii_and_literals_stay_on_one_line():
    cases = [
        ("class Caf\u00e9 { }", (1, 10, "unsupported character '\u00e9'")),
        ("class C { int x\u00b2; }", (1, 16, "unsupported character '\u00b2'")),
        ("class C { int f() { return \u0663; } }", (1, 28, "unsupported character '\u0663'")),
        # a backslash does not carry a literal onto the next line
        ('class C {\n  String s() {\n    return "a\\\nb";\n  }\n}\n',
         (3, 12, "unterminated string literal")),
        ("class C {\n  char c() { return '\\\n'; }\n}\n", (2, 21, "unterminated char literal")),
    ]
    for text, expected in cases:
        models, diagnostics = parse_text(text)
        assert models == [], text
        assert [(d.line, d.column, d.message) for d in diagnostics] == [expected], text
    # an escaped quote still stays inside its literal
    assert parse_text('class C {\n  String s() { return "\\"\\\\"; }\n}\n')[1] == []


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


def _words_and_positions(text):
    tokens = tokenize(text)
    positions = tokens.positions(range(len(tokens)))
    return [(word, line, col) for word, (line, col) in zip(tokens.words, positions)]


def test_tokenize_kinds_and_positions():
    for text, expected in TOKEN_CASES:
        assert _words_and_positions(text) == expected, text
    # a keyword is a whole word, not a prefix
    models, diagnostics = parse_text("class newer { classy f; }")
    assert diagnostics == [] and [model.name for model in models] == ["newer"]
    _, diagnostics = parse_text("class new { }")
    assert [(d.line, d.column, d.message) for d in diagnostics] == [
        (1, 7, "expected class name, found 'new'")
    ]


def test_unterminated_literal_fails_in_linear_time():
    expected = [(1, 11, "unterminated string literal")]
    _, diagnostics = parse_text('class A { "\\')
    assert [(d.line, d.column, d.message) for d in diagnostics] == expected
    started = time.perf_counter()
    _, diagnostics = parse_text('class A { ' + '"\\' * 20000)
    elapsed = time.perf_counter() - started
    assert [(d.line, d.column, d.message) for d in diagnostics] == expected
    assert elapsed < 1.0, f"lexing a 40,000-character literal took {elapsed:.2f}s"


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


_GRAMMAR_TOKENS = [
    "class", "extends", "implements", "new", "return", "this", "void", "true", "false",
    "null", "public", "static", "{", "}", "(", ")", "[", "]", ";", ",", ".", "=",
    "A", "B", "f", "m", "x", "42", "1.5", '"s"', "'c'", "/* c */", "// c\n",
]
_STRAY = ["+", "<", "-", ">", "@", "#", "\\", '"', "'", "/*", "\u00e9", "\u00b2", "\r", "\t"]


@st.composite
def token_sequences(draw):
    """Grammar words and stray characters, each followed by a separator that
    may hold a bare CR, a tab or a block comment spanning lines."""
    separators = ["", " ", "\n", "\r", "\t", "\r\n", "/* a\n\n b */"]
    pieces = draw(
        st.lists(
            st.tuples(st.sampled_from(_GRAMMAR_TOKENS + _STRAY), st.sampled_from(separators)),
            max_size=40,
        )
    )
    prefix = "class A { A f; A m(A p) { " if draw(st.booleans()) else ""
    return prefix + "".join(token + separator for token, separator in pieces)


@given(token_sequences())
def test_any_token_sequence_gives_models_or_one_error(text):
    models, diagnostics = parse_text(text)
    if diagnostics:
        assert models == []
        assert len(diagnostics) == 1
        diag = diagnostics[0]
        assert diag.severity == "error"
        assert 1 <= diag.line <= text.count("\n") + 1 and diag.column >= 1


@given(token_sequences())
def test_positions_point_at_their_tokens(text):
    lines = text.split("\n")
    for word, line, col in _words_and_positions(text):
        assert lines[line - 1][col - 1 :].startswith(word), (word, line, col)
    models, diagnostics = parse_text(text)
    for model in models:
        assert lines[model.line - 1][model.column - 1 :].startswith(model.name), model.name
    for diag in diagnostics:
        assert 1 <= diag.line <= len(lines), diag
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1, diag


def test_parsing_is_deterministic():
    first, _ = parse_text(CND_SNIPPET)
    second, _ = parse_text(CND_SNIPPET)
    assert first == second


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_blank_line_insertion_preserves_line_count(seed):
    rng = random.Random(seed)
    lines = CND_SNIPPET.splitlines()
    baseline = parse_text(CND_SNIPPET)[0][0].file_line_count
    for _ in range(rng.randint(1, 6)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "   ", "\t"]))
    padded = "\n".join(lines) + "\n"
    models, diagnostics = parse_source(SourceFile.from_text("Padded.java", padded))
    assert diagnostics == []
    assert models[0].file_line_count == baseline
    assert models[0].line_count == baseline


def _file_and_class_loc(text):
    models, diagnostics = parse_text(text)
    assert diagnostics == []
    metrics = analyze_project_model(resolve_project(models)[0], "project").metrics
    return metrics.total_loc, metrics.class_metrics[0].loc


def test_lines_end_only_at_newline():
    # a bare CR is whitespace, as it is for diagnostic positions
    assert _file_and_class_loc("class A {\r int x;\r}\r") == (1, 1)
    # a form feed inside a string literal does not end the line
    assert _file_and_class_loc('class A {\n String s() {\n return "\f"; }\n}\n') == (4, 4)


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
        for model in parse_source(SourceFile.from_text(name, (tmp_path / name).read_text()))[0]
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
    for directory in ("sub", ".hidden", "real.java"):
        (project / directory).mkdir(parents=True)
    for name in ("A.java", "sub/B.java", ".hidden/C.java", "real.java/F.java", "notes.txt"):
        (project / name).write_text("")
    (project / "linked").symlink_to(other)  # a symlinked directory is not entered
    (project / "Dir.java").symlink_to(other)  # nor is it a file
    (project / "Link.java").symlink_to(other / "D.java")
    (project / "Broken.java").symlink_to(tmp_path / "missing.java")
    (project / "Loop.java").symlink_to(project / "Loop.java")
    found = [p.relative_to(project).as_posix() for p in discover_source_files(project)]
    assert found == [
        "A.java", "Broken.java", "Link.java", "Loop.java", "real.java/F.java", "sub/B.java"
    ]


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


@st.composite
def comment_heavy_sources(draw):
    pieces = [draw(st.sampled_from(["", "// header\n", "/* header */ "])), "public class C {"]
    items = st.one_of(st.sampled_from(_COMMENTS), st.sampled_from(_MEMBERS))
    for index, item in enumerate(draw(st.lists(items, max_size=12))):
        pieces.append(draw(st.sampled_from(_SEPARATORS)))
        # a line comment must end before any code that follows it
        pieces.append(item.replace("{i}", str(index)) + ("\n" if item.startswith("//") else ""))
    pieces.append(draw(st.sampled_from(_SEPARATORS)) + "}")
    pieces.append(draw(st.sampled_from(["", "\n", " /* trailer */\n", "\n// end"])))
    return "".join(pieces)


@given(comment_heavy_sources())
def test_file_loc_matches_regex_comment_stripper(text):
    models, diagnostics = parse_text(text)
    assert diagnostics == []
    expected = _regex_loc(text)
    assert models[0].file_line_count == expected
    assert models[0].line_count == expected  # one class spans every code line


def _nested_creation(depth):
    return "new A(" * depth + "null" + ")" * depth


def test_expression_nesting_limit_is_one_positioned_error():
    template = "class A {{\n    A(A a) {{\n    }}\n    void m() {{\n        {};\n    }}\n}}\n"
    models, diagnostics = parse_text(template.format(_nested_creation(MAX_EXPRESSION_NESTING)))
    assert diagnostics == [] and len(models) == 1
    for depth in (MAX_EXPRESSION_NESTING + 1, 5000):
        models, diagnostics = parse_text(template.format(_nested_creation(depth)))
        assert models == []
        assert len(diagnostics) == 1
        diag = diagnostics[0]
        assert diag.severity == "error"
        # the opening parenthesis of the first argument list past the limit
        assert (diag.line, diag.column) == (5, 9 + 6 * MAX_EXPRESSION_NESTING + 5)
