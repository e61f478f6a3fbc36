"""CLI fuzz: no argv, no report bytes and no source tree make the command line raise.

Every call returns 0, 1 or 2 without raising, ``SystemExit`` included, and
every line it puts on stderr, usage errors included, is a positioned
``path:line:col: severity: message`` diagnostic.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimetrics.cli import main
from dimetrics.report import CSV_COLUMNS

HEADER = ",".join(CSV_COLUMNS)
REPORT = HEADER + "".join(
    f"\np{i},{di},1,1,0,1,8,0.5,0.5,0,0.5,0.6,{dmai}"
    for i, (di, dmai) in enumerate([(0.1, 0.6), (0.2, 0.5), (0.8, 0.7), (0.9, 0.8)])
) + "\n"
CLASS = "class A { private B b; public A(B b) { this.b = b; } }\nclass B { }\n"
# every subcommand, flag and choice, values in and out of range; the paths
# the workspace holds, some it does not and some no file system can hold
COMMANDS = ("analyze", "generate", "stats", "chart")
PATHS = (
    "project", "broken", "report.csv", "out.csv", "out.svg", "missing", "missing/out.svg",
    ".", "", "-", "nul\0.csv", "\ud800.svg", "\udcff",
)
WORDS = COMMANDS + PATHS + (
    "-h", "--help", "--",
    "--format", "csv", "json", "xml", "--out", "--step", "10", "20", "0", "-5", "7",
    "--threshold", "0.5", "1", "1.5", "nan", "--boundary", "exclude", "lower", "upper",
    "--metric", "mai", "dmai", "cbo", "--alpha", "0.05", "--alpha=7", "--step=", "--form",
)
# mostly a subcommand and paths first, so that most calls get past the command line
ARGV = st.builds(
    lambda head, paths, rest: head + paths + rest,
    st.one_of(st.sampled_from(COMMANDS).map(lambda command: [command]), st.just([])),
    st.lists(st.sampled_from(PATHS), max_size=3),
    st.lists(st.one_of(st.sampled_from(WORDS), st.text(max_size=6)), max_size=5),
)

CELLS = ("p", "0", "0.5", "1", "8", "nan", "inf", "-1", "2", "1e999", "x", "", '"', '"a,b"', " 1")
UNIT = st.floats(0, 1).map("{:.2f}".format)
# a LOC of 401 digits is an int too large for a float
VALID_ROW = st.builds(
    lambda name, di, loc, scores: f"{name},{di},1,1,0,1,{loc},{','.join(scores)}",
    st.sampled_from(["a", "b", "c"]),
    UNIT,
    st.sampled_from(["8", "0", "-1", str(10**400)]),
    st.lists(UNIT, min_size=6, max_size=6),
)
HUGE_LOC_REPORT = f"{HEADER}\na,0.2,1,1,0,1,{10**400},0.5,0.5,0,0.5,0.6,0.7\n".encode()
JUNK_ROW = st.lists(st.sampled_from(CELLS), max_size=15).map(",".join)
REPORT_BYTES = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda rows, tail: (HEADER + "\n" + "\n".join(rows)).encode() + tail,
        st.lists(st.one_of(VALID_ROW, JUNK_ROW), max_size=10),
        st.binary(max_size=20),
    ),
)

# the words of docs/grammar.md, characters outside it, and separators
PIECES = (
    "class", "extends", "implements", "new", "return", "this", "void", "null", "true",
    "public", "static", "final", "{", "}", "(", ")", "[", "]", ";", ",", ".", "=",
    "A", "B", "b", "x", "42", "1.5", '"s"', "'c'", '"', "//", "/*", "*/", "#", "\u00e9", "\0",
)
SOURCE_BYTES = st.one_of(
    st.binary(max_size=200),  # mostly not UTF-8
    st.just(CLASS.encode()),
    st.builds(
        lambda pieces, seps: "".join(p + s for p, s in zip(pieces, seps)).encode(),
        st.lists(st.sampled_from(PIECES), max_size=40),
        st.lists(st.sampled_from([" ", "\n", "\t", "\r", ""]), min_size=40, max_size=40),
    ),
)
# file names, without ".java", with the characters a diagnostic line must escape
FILE_NAMES = ("A", "B", "a b", "tab\tname", "new\nline", "bad\udcffbyte", "esc\x1b")


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; any exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@contextlib.contextmanager
def _workspace():
    """A fresh current directory with a project, a broken project and a report."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        for name, text in (("project", CLASS), ("broken", "class A { int x = 1; }\n")):
            Path(root, name).mkdir()
            Path(root, name, "A.java").write_text(text, encoding="utf-8")
        Path(root, "report.csv").write_text(REPORT, encoding="utf-8")
        os.chdir(root)
        try:
            yield Path(root)
        finally:
            os.chdir(previous)


@settings(deadline=None)
@given(ARGV)
@example(["stats", "nul\0.csv"])
@example(["chart", "report.csv", "\ud800.svg"])
@example(["analyze", "project", "--out", "nul\0.csv"])
def test_any_argv_exits_0_1_or_2(argv):
    with _workspace():
        code, err = _run(argv)
    assert code in (0, 1, 2), (code, err)
    for line in err.splitlines():  # an empty path gives ":1:1: error: empty path"
        assert re.fullmatch(r".*:\d+:\d+: (error|warning): .+", line), line


@settings(deadline=None)
@given(st.sampled_from(["stats", "chart"]), REPORT_BYTES)
@example("stats", HUGE_LOC_REPORT)
@example("chart", HUGE_LOC_REPORT)
def test_any_report_bytes_give_positioned_diagnostics(command, data):
    with _workspace() as root:
        (root / "fuzzed.csv").write_bytes(data)
        argv = [command, "fuzzed.csv"] + (["out.svg"] if command == "chart" else [])
        code, err = _run(argv)
        wrote_chart = (root / "out.svg").exists()
    assert code in (0, 1), (code, err)
    assert wrote_chart == (command == "chart" and code == 0)
    for line in err.splitlines():
        assert re.fullmatch(r"fuzzed\.csv:\d+:1: (error|warning): .+", line), line


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(FILE_NAMES), SOURCE_BYTES), max_size=4),
    st.booleans(),
    st.booleans(),
)
@example([("new\nline", b"class A { int x = 1; }")], False, False)
@example([("A", CLASS.encode()), ("new\nline", CLASS.encode())], True, False)
def test_any_source_files_give_positioned_diagnostics(files, as_json, java_dir):
    with _workspace() as root:
        project = root / "fuzzed"
        project.mkdir()
        if java_dir:  # a directory is searched, never read as a file
            (project / "X.java").mkdir()
            (project / "X.java" / "C.java").write_text("class C { }\n", encoding="utf-8")
        for name, data in files:
            (project / f"{name}.java").write_bytes(data)
        code, err = _run(["analyze", "fuzzed"] + (["--format", "json"] if as_json else []))
    assert code in (0, 1), (code, err)
    assert "Traceback" not in err and "internal error" not in err, err
    for line in err.splitlines():
        assert re.fullmatch(r"fuzzed(/.+)?:\d+:\d+: (error|warning): .+", line), line
