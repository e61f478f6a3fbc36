"""Every helper that more than one test module uses, so that no test module
imports another: builders for hand-made and randomized class models and for
the paper's dog-pen project, the dog-pen project's exact check, the invalid
rank matrices, a printer that writes a model back as source, the tests of a
table of cases, the one vocabulary of the fuzzed source texts, a device that
takes no byte, the repository's paths, the one way the tests start a child
interpreter, and the runs that several tests read: the paper suite and its
report, and the reproduce script.

It also bounds what a test run can take: a code fault that loops or grows
without end fails its test instead of exhausting the machine."""
from __future__ import annotations

import faulthandler
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import dimetrics
from dimetrics.analysis import analyze_project_model
from dimetrics.cli import main
from dimetrics.di import CND, HARD
from dimetrics.frontend import (
    ClassModel,
    FieldDecl,
    MethodModel,
    SourceFile,
    parse_source,
    resolve_project,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(dimetrics.__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Tier-1 peaks near 64 MiB.  A parser that re-reads one declaration forever
# grew a test process past 7 GB in 40 s; under this address-space limit it
# meets a MemoryError instead.  Children of run_python inherit the limit.
ADDRESS_SPACE_LIMIT = 1 << 30
# Each test, its fixtures' setup and teardown included, ends within this many
# seconds, with every thread's traceback: a loop that does not allocate ends
# too.  It exceeds two of run_python's timeouts, the most one setup spends.
TEST_DEADLINE_S = 300


# where a test past its deadline prints: the terminal's stderr, since what the
# test itself writes there is captured, and lost when the run ends
_DEADLINE_STDERR = pytest.StashKey[int]()


def pytest_sessionstart(session):
    session.config.stash[_DEADLINE_STDERR] = os.dup(sys.stderr.fileno())
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_LIMIT:
            resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))
    except (ImportError, AttributeError, ValueError, OSError) as exc:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write_line(f"address space not limited ({type(exc).__name__}: {exc})")


def pytest_sessionfinish(session):
    os.close(session.config.stash[_DEADLINE_STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    stderr = item.config.stash[_DEADLINE_STDERR]
    faulthandler.dump_traceback_later(TEST_DEADLINE_S, exit=True, file=stderr)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


def run_python(*args, cwd=None, path=(SRC,), hash_seed=None, timeout=120):
    """``python *args`` in a fresh child with ``PYTHONPATH`` set to ``path``
    (and ``PYTHONHASHSEED`` to ``hash_seed``, if given): the finished
    ``CompletedProcess``, its output in bytes.  A child that outlives
    ``timeout`` seconds fails the test instead of hanging it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, check=False, timeout=timeout
    )


def make_method(
    name: str,
    *,
    is_constructor: bool = False,
    params: tuple[str, ...] = (),
    return_type: str | None = None,
    instantiates: tuple[str, ...] = (),
    invokes: tuple[tuple[str, str], ...] = (),
    accesses: tuple[str, ...] = (),
) -> MethodModel:
    return MethodModel(
        name=name,
        is_constructor=is_constructor,
        param_types=params,
        return_type=return_type,
        instantiated_types=instantiates,
        invoked_methods=frozenset(invokes),
        accessed_fields=frozenset(accesses),
    )


def make_class(
    name: str,
    *,
    fields: tuple[tuple[str, str], ...] = (),
    methods: tuple[MethodModel, ...] = (),
    supers: tuple[str, ...] = (),
    line_count: int = 8,
) -> ClassModel:
    return ClassModel(
        name=name,
        super_types=supers,
        fields=tuple(FieldDecl(fname, ftype) for fname, ftype in fields),
        methods=methods,
        path=f"{name}.java",
        line=1,
        column=1,
        file_line_count=line_count,
        line_count=line_count,
    )


def _print_method(method: MethodModel) -> list[str]:
    params = ", ".join(f"{ptype} p{i}" for i, ptype in enumerate(method.param_types))
    result = "" if method.is_constructor else f"{method.return_type or 'void'} "
    body = [
        f"{receiver} v{n} = null; v{n}.{name}();"
        for n, (receiver, name) in enumerate(sorted(method.invoked_methods))
    ]
    body.extend(f"this.{field} = null;" for field in sorted(method.accessed_fields))
    body.extend(f"new {type_name}();" for type_name in method.instantiated_types)
    return [
        f"    public {result}{method.name}({params}) {{",
        *(f"        {line}" for line in body),
        "    }",
    ]


def print_class(model: ClassModel) -> str:
    """Source text in the accepted grammar (docs/grammar.md) that parses back
    to ``model``: each recorded fact has one printed form that the parser maps
    back to exactly that fact.  An invoked ``(T, m)`` is ``T vN = null;
    vN.m();`` (the local carries the receiver type, and reading a local is no
    field access), an accessed field ``f`` is ``this.f = null;``, and each
    creation, in order, is ``new T();``.  Super types keep their order."""
    header = f"public class {model.name}"
    if model.super_types:
        header += f" extends {model.super_types[0]}"
    if model.super_types[1:]:
        header += " implements " + ", ".join(model.super_types[1:])
    lines = [header + " {"]
    lines.extend(f"    private {fld.type_name} {fld.name};" for fld in model.fields)
    for method in model.methods:
        lines.extend(_print_method(method))
    lines.append("}")
    return "\n".join(lines) + "\n"


def pairwise_lcom1(access_sets) -> int:
    """Chidamber & Kemerer's LCOM over every pair of methods' access sets:
    the disjoint pairs less the sharing ones, at least 0."""
    disjoint = sharing = 0
    for index, first in enumerate(access_sets):
        for second in access_sets[index + 1 :]:
            if first & second:
                sharing += 1
            else:
                disjoint += 1
    return max(disjoint - sharing, 0)


def make_project(*classes: ClassModel) -> tuple[ClassModel, ...]:
    project, diagnostics = resolve_project(list(classes))
    assert project is not None, diagnostics
    return project


def dog_pen_project(injected: int = 0, pens: int = 10):
    """Dog plus N pens; injected pens take Dog as a constructor parameter,
    the rest construct their own."""
    classes = [
        make_class(
            "Dog",
            fields=(("name", "String"),),
            methods=(
                make_method("Dog", is_constructor=True, params=("String",), accesses=("name",)),
                make_method("getName", return_type="String", accesses=("name",)),
            ),
        )
    ]
    for i in range(1, pens + 1):
        if i <= injected:
            ctor = make_method(
                f"DogPen{i}", is_constructor=True, params=("Dog",), accesses=("dog",)
            )
        else:
            ctor = make_method(
                f"DogPen{i}", is_constructor=True, instantiates=("Dog",), accesses=("dog",)
            )
        classes.append(
            make_class(
                f"DogPen{i}",
                fields=(("dog", "Dog"),),
                methods=(ctor, make_method("getDog", return_type="Dog", accesses=("dog",))),
                line_count=8 if i <= injected else 10,
            )
        )
    return make_project(*classes)


def check_dog_pen(k: int) -> None:
    """The dog-pen project with k of its ten pens injected, checked with exact
    equality: the same coupling graph as with none (Dog's degree 10, each
    pen's 1); the findings (DogPen{i}, Dog, CND) for i <= k and HARD for the
    other pens; each class's CBO, DIP, DCBO and RFC; and the means CBO 20/11,
    DCBO (20 - k)/11, RFC (32 - k)/11 and DI k/10."""
    pens = range(1, 11)
    analysis = analyze_project_model(dog_pen_project(injected=k), "project")
    plain = analyze_project_model(dog_pen_project(injected=0), "project").graph
    assert plain.degrees == {"Dog": 10, **{f"DogPen{i}": 1 for i in pens}}
    assert analysis.graph == plain, k
    findings = [(f"DogPen{i}", "Dog", CND if i <= k else HARD) for i in pens]
    assert sorted(analysis.injections.findings) == sorted(findings), k
    # (CBO, DIP, DCBO, RFC) of each class
    expected = {"Dog": (10, 0, 10, 2)}
    expected.update((f"DogPen{i}", (1, 1, 0, 2) if i <= k else (1, 0, 1, 3)) for i in pens)
    metrics = analysis.metrics
    per_class = {c.class_name: (c.cbo, c.dip, c.dcbo, c.rfc) for c in metrics.class_metrics}
    assert per_class == expected, k
    means = (metrics.mean_cbo, metrics.mean_dcbo, metrics.mean_rfc, metrics.di_proportion)
    assert means == (20 / 11, (20 - k) / 11, (32 - k) / 11, k / 10), k


# (treatments, blocks, message): each way a rank matrix can be invalid
RANK_MATRIX_ERRORS = [
    (("a",), ((1.0,), (2.0,)), "a rank matrix needs at least 2 treatments"),
    (("a",), ((1.0, 2.0), (2.0, 1.0)), "a rank matrix needs at least 2 treatments"),
    (("a", "b"), ((1.0, 2.0),), "a rank matrix needs at least 2 blocks"),
    (("a", "b"), ((1.0, 2.0), (1.0,)), "every block must cover every treatment"),
    # non-finite values would give mean ranks that do not sum to k(k+1)/2
    *((("a", "b"), ((1.0, 2.0), (bad, 1.0)), "block values must be finite")
      for bad in (math.nan, math.inf, -math.inf)),
]


def parse_text(text: str, path: str = "Test.java"):
    return parse_source(SourceFile(path, text))


def named_tests(check, table):
    """The tests of a table of cases, to bind with ``globals().update``: for each
    entry ``name: rows``, a test ``name`` that calls ``check(*row)`` on each row,
    so that a table keeps the names of the tests folded into it."""
    def test_of(rows):
        def test():
            for row in rows:
                check(*row)
        return test
    return {name: test_of(rows) for name, rows in table.items()}


# the words of docs/grammar.md, and characters and comment markers outside it
GRAMMAR_TOKENS = [
    "class", "extends", "implements", "new", "return", "this", "void", "true", "false",
    "null", "public", "static", "final", "{", "}", "(", ")", "[", "]", ";", ",", ".", "=",
    "A", "B", "f", "m", "x", "42", "1.5", '"s"', "'c'", "/* c */", "// c\n",
]
STRAY = ["+", "<", "-", ">", "@", "#", "\\", '"', "'", "/*", "*/", "//", "\0", "\u00e9", "\u00b2",
         "\r", "\t"]


@st.composite
def token_sequences(draw):
    """Grammar words and stray characters, each followed by a separator that
    may hold a bare CR, a tab or a block comment spanning lines."""
    separators = ["", " ", "\n", "\r", "\t", "\r\n", "/* a\n\n b */"]
    pieces = draw(st.lists(st.tuples(st.sampled_from(GRAMMAR_TOKENS + STRAY),
                                     st.sampled_from(separators)), max_size=40))
    prefix = "class A { A f; A m(A p) { " if draw(st.booleans()) else ""
    return prefix + "".join(token + separator for token, separator in pieces)


class FullDevice(io.BytesIO):
    """A device that takes no byte: every write fails as on a full disk."""

    def write(self, data):
        raise OSError(28, "No space left on device")


def random_project(rng: random.Random, max_classes: int = 6) -> tuple[ClassModel, ...]:
    """A structurally valid random project over class names C0..C5.

    Reference pools include non-project names (String, int, Ext) so that
    library-coupling filtering is exercised, plus array spellings.
    """
    n = rng.randint(1, max_classes)
    names = [f"C{i}" for i in range(n)]
    type_pool = names + ["String", "int", "Ext"] + [f"{name}[]" for name in names[:2]]
    classes = []
    for name in names:
        field_names = [f"f{j}" for j in range(rng.randint(0, 3))]
        fields = tuple((fname, rng.choice(type_pool)) for fname in field_names)
        methods = []
        if rng.random() < 0.8:
            methods.append(
                make_method(
                    name,
                    is_constructor=True,
                    params=tuple(rng.choice(type_pool) for _ in range(rng.randint(0, 2))),
                    instantiates=tuple(
                        rng.choice(names + ["Ext"]) for _ in range(rng.randint(0, 2))
                    ),
                    accesses=tuple(
                        rng.sample(field_names, rng.randint(0, len(field_names)))
                    ),
                )
            )
        for j in range(rng.randint(0, 3)):
            methods.append(
                make_method(
                    f"m{j}",
                    params=tuple(rng.choice(type_pool) for _ in range(rng.randint(0, 2))),
                    return_type=rng.choice(type_pool + [None]),
                    instantiates=tuple(
                        rng.choice(names + ["Ext"]) for _ in range(rng.randint(0, 1))
                    ),
                    invokes=tuple(
                        (rng.choice(names + ["Ext"]), f"call{rng.randint(0, 4)}")
                        for _ in range(rng.randint(0, 2))
                    ),
                    accesses=tuple(
                        rng.sample(field_names, rng.randint(0, len(field_names)))
                    ),
                )
            )
        supers = ()
        others = [other for other in names if other != name]
        if others and rng.random() < 0.2:
            supers = (rng.choice(others),)
        classes.append(
            make_class(
                name,
                fields=fields,
                methods=tuple(methods),
                supers=supers,
                line_count=rng.randint(3, 12),
            )
        )
    return make_project(*classes)


@pytest.fixture(scope="session")
def paper_suite(tmp_path_factory):
    """The paper's suite, ``generate --step 10``, and its ``analyze`` report:
    the eleven project directories, from di_0 to di_100, and the report's
    path.  Shared by every test in the session, so no test may write there."""
    root = tmp_path_factory.mktemp("paper_suite")
    assert main(["generate", str(root / "projects"), "--step", "10"]) == 0
    dirs = sorted((root / "projects").iterdir(), key=lambda p: int(p.name.split("_")[1]))
    report = root / "report.csv"
    assert main(["analyze", *map(str, dirs), "--out", str(report)]) == 0
    return dirs, report


@pytest.fixture(scope="session")
def reproduced(tmp_path_factory):
    """``scripts/reproduce_experiment.py --out-dir out`` run in two fresh
    interpreters, each in its own directory, under ``PYTHONHASHSEED`` 0 and 1:
    each seed's exit code, stdout, stderr and every file written, by path
    relative to its directory."""
    script = ROOT / "scripts" / "reproduce_experiment.py"
    runs = {}
    for seed in ("0", "1"):
        root = tmp_path_factory.mktemp(f"seed{seed}")
        result = run_python(script, "--out-dir", "out", cwd=root, hash_seed=seed)
        written = {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()
        }
        runs[seed] = (result.returncode, result.stdout, result.stderr, written)
    return runs
