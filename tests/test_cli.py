"""CLI, report serialization, and chart tests."""
from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shutil
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

from dimetrics import analysis, cli
from dimetrics.chart import least_squares, render_chart
from dimetrics.cli import main
from dimetrics.generator import generate_suite
from dimetrics.report import (
    CSV_COLUMNS,
    ReportFormatError,
    format_decimals,
    parse_report_csv,
)

from conftest import ClosedDevice, FullDevice, run_python

CSV_HEADER = ",".join(CSV_COLUMNS)

CELLS = "0.10,1,1,0,1,8,0.5,0.5,0,0.5,0.6"  # a row's cells from di to mai
TWO_ROW_REPORT = f"{CSV_HEADER}\na,{CELLS},0.6\nb,0.90,1,1,0,1,8,0.4,0.3,0,0.4,0.7,0.8\n"

# `stats` on the generated suite's report, split into some blocks; mai and dmai
# split identically.  Every block has its DI project ahead, so chi-square is the
# block count and p is P(chi2_1 >= blocks).
SUITE_STATS = """\
metric: {metric}
blocks: {blocks}  treatments: 2
Friedman chi-square: {blocks}.000000 (df=1)
p-value: {p}
mean ranks: No DI=1.000  DI=2.000
Holm pairwise comparisons:
  No DI vs DI: z={z} raw p={p} adjusted p={p} -> {decision}
decision at alpha=0.05: {decision}
"""
# by block count: the threshold that splits the suite so, its group sizes, p, z and the verdict
SPLITS = {3: ("0.25", (3, 8), "0.083265", "1.7321", "retain"),
          4: ("0.35", (4, 7), "0.045500", "2.0000", "reject"),
          5: ("0.5", (5, 5), "0.025347", "2.2361", "reject")}


def _suite_stats(metric: str, blocks: int = 5) -> str:
    _, _, p, z, decision = SPLITS[blocks]
    return SUITE_STATS.format(metric=metric, blocks=blocks, p=p, z=z, decision=decision)


# The workspace, by paths relative to its root: the suite, its report.csv,
# the reports that the failing commands read and the projects of the
# analyze rows.
SUITE = [f"suite/di_{percent}" for percent in range(0, 101, 10)]
CLASS_A = "public class A {\n}\n"
FILES = {
    "header.csv": f"{CSV_HEADER}\n",
    "one.csv": f"{CSV_HEADER}\na,{CELLS},0.6\n",
    "nan.csv": f"{CSV_HEADER}\na,{CELLS},0.6\nb,{CELLS},nan\n",
    # the quoted name spans lines 2 and 3, so the nan is on line 5
    "record.csv": f'{CSV_HEADER}\n"a\nb",{CELLS},0.6\nc,{CELLS},0.6\ndi_10,{CELLS},nan\n',
    "oops.csv": f"{CSV_HEADER}\np,0.1,oops,1,1,1,1,1,1,1,1,1,1\n",
    "negative.csv": f"{CSV_HEADER}\na,{CELLS},0.6\nb,0.90,1,1,0,1,-5,0.4,0.3,0,0.4,0.7,0.8\n",
    "big.csv": f'{TWO_ROW_REPORT}"{"x" * (csv.field_size_limit() + 1)}",1\n',
    "binary.csv": b"\xff\xfe",
    "file": "",
    # analyzing either project would print this file's parse error
    "a/x/Broken.java": "public class Broken { int x = 1 + 1; }\n",
    "b/x/Broken.java": "public class Broken { int x = 1 + 1; }\n",
    "visible/Seen.java": "public class Seen {\n}\n",
    "visible/.hidden/Sneaky.java": "public class Sneaky {\n}\n",
    "deep/A.java": "class A {\n    A(A a) {\n    }\n    void m() {\n        %s;\n    }\n}\n"
                   % ("new A(" * 600 + "null" + ")" * 600),
    "ok/B.java": "public class B {\n}\n",
    "p/A.java": CLASS_A,
    "p/B.java": b"\xffclass B {\n}\n",
    "q/A.java": CLASS_A,
    "café/A.java": CLASS_A,
}
NO_SUCH_FILE = "[Errno 2] No such file or directory:"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("workspace")
    assert main(["generate", str(root / "suite"), "--step", "10"]) == 0
    projects = [str(root / project) for project in SUITE]
    assert main(["analyze", *projects, "--out", str(root / "report.csv")]) == 0
    for name, data in FILES.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    (root / "empty").mkdir()
    return root


@pytest.fixture(scope="module")
def suite(workspace):
    return [str(workspace / project) for project in SUITE]


@pytest.fixture(scope="module")
def report(workspace):
    """The suite's CSV report."""
    return str(workspace / "report.csv")


def _contents(root: Path) -> dict[Path, bytes | None]:
    """Every path under ``root``, directories included, with each file's bytes."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.fixture
def calls(workspace, monkeypatch, capsys):
    """``calls(argv, code, out, err)``: run in the workspace, ``main(argv)`` exits
    with ``code``, prints exactly ``out`` on stdout and ``err`` on stderr, and
    leaves every path under the workspace, and every byte of its files, as it was."""
    monkeypatch.chdir(workspace)
    before = _contents(workspace)

    def check(argv: list[str], code: int, out: str, err: str) -> None:
        assert main(argv) == code, argv
        assert capsys.readouterr() == (out, err), argv
        assert _contents(workspace) == before, argv

    return check


def _reading(command: str, report: str) -> list[str]:
    """The argv of ``stats`` or ``chart`` on ``report``."""
    return [command, report] + (["trends.svg"] if command == "chart" else [])


def test_format_decimal_half_up():
    assert format_decimals([1.545]) == ["1.55"]
    assert format_decimals([0.125]) == ["0.13"]
    assert format_decimals([2.0]) == ["2.00"]
    assert format_decimals([20 / 11]) == ["1.82"]


def _half_up(value: float) -> str:
    """The display string of ``value``, rounded by ``decimal`` alone."""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), ROUND_HALF_UP))


# the ties of two-place rounding and their neighbours, signs, tiny and huge values
BOUNDARIES = [k / 200 + delta for k in range(-400, 2401) for delta in (-1e-9, 0.0, 1e-9)] + [
    0.005, 0.995, 9.995, -0.0, -0.001, 5e-05, 9.999999999999999e15, 1e16, 1.5e17,
]


def test_format_decimal_rounds_half_up_from_the_shortest_repr():
    """On 100,000 seeded finite floats of every magnitude up to 2**57, and on
    the boundary table, each value alone and a row of them at once."""
    rng = random.Random(20260101)
    values = [rng.choice((-1, 1)) * math.ldexp(rng.random(), rng.randrange(-40, 58))
              for _ in range(100_000)] + BOUNDARIES
    expected = [_half_up(value) for value in values]
    assert [format_decimals([value])[0] for value in values] == expected
    assert format_decimals(values) == expected


def test_analyze_csv_report(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 12
    assert [line.split(",")[0] for line in lines[1:]] == sorted(
        line.split(",")[0] for line in lines[1:]
    )
    assert capsys.readouterr().err == ""


def test_json_report_is_lossless(suite, report, tmp_path):
    json_out = tmp_path / "report.json"
    assert main(["analyze", *suite, "--format", "json", "--out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    rows = parse_report_csv(Path(report).read_text())
    assert len(payload) == len(rows) == 11
    by_name = {entry["project"]: entry for entry in payload}
    for row in rows:
        entry = by_name[row.project]
        # display strings match the CSV cells exactly
        assert format_decimals([entry["dcbo"]]) == [entry["display"]["dcbo"]]
        assert float(entry["display"]["dcbo"]) == row.dcbo
        # full-precision values survive the JSON round trip
        assert json.loads(json.dumps(entry["mai"])) == entry["mai"]
    di0 = by_name["di_0"]
    assert di0["cbo"] == 20 / 11  # unrounded
    assert di0["display"]["cbo"] == "1.82"


def test_analyze_tree_deeper_than_the_recursion_limit(suite, tmp_path, capsys):
    project = tmp_path / "deep" / "proj"
    project.mkdir(parents=True)
    leaf = project
    for _ in range(1200):  # mkdir(parents=True) would recurse once per level
        leaf = leaf / "d"
        leaf.mkdir()
    (leaf / "A.java").write_text("public class A {\n}\n")
    try:
        assert main(["analyze", str(project), suite[0]]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["di_0", "proj"]
        assert rows[1].split(",")[6] == "2"
    finally:  # removed bottom-up: recursive removal fails at this depth
        (leaf / "A.java").unlink()
        while leaf != project:
            leaf.rmdir()
            leaf = leaf.parent


@pytest.mark.parametrize("unreadable", ["di_50", "di_50/sub"])
def test_unreadable_project_directory_is_an_error(unreadable, tmp_path, monkeypatch, capsys):
    dirs = generate_suite(tmp_path, step=50)
    blocked = tmp_path / unreadable
    blocked.mkdir(exist_ok=True)
    scandir = os.scandir

    def failing_scandir(path):
        if os.fspath(path) == str(blocked):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", failing_scandir)
    assert main(["analyze", *map(str, dirs)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"{tmp_path / 'di_50'}:1:1: error: cannot read directory:"
        f" [Errno 13] Permission denied: '{blocked}'\n"
    )
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["di_0", "di_100"]


def test_internal_error_fails_only_its_project(tmp_path, monkeypatch, capsys):
    dirs = generate_suite(tmp_path, step=50)
    load = analysis.load_source_file

    def failing_load(path):
        if "di_50" in Path(path).parts:
            raise RuntimeError("simulated fault")
        return load(path)

    monkeypatch.setattr(analysis, "load_source_file", failing_load)
    assert main(["analyze", *map(str, dirs)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"{tmp_path / 'di_50'}:1:1: error: internal error: RuntimeError: simulated fault\n"
    )
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["di_0", "di_100"]


def test_analyze_dot_is_named_after_the_current_directory(suite, monkeypatch, capsys):
    monkeypatch.chdir(suite[0])
    assert main(["analyze", "."]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("di_0,")
    assert main(["analyze", ".", "../di_0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "../di_0:1:1: error: duplicate project name 'di_0': . and ../di_0\n"


@pytest.mark.parametrize("path", [".", "..", "/", "//", "a/", "a/.", "a//b", "./a/", "café",
                                  os.fsdecode(b"\xffproj")])
def test_a_project_is_named_after_the_last_part_of_its_absolute_path(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = Path(os.path.abspath(path)).name
    assert analysis.project_name(path) == analysis.project_name(Path(path)) == expected


def test_analyze_rejects_project_name_that_is_not_utf8(tmp_path):
    project = tmp_path / os.fsdecode(b"\xffproj")
    project.mkdir()
    (project / "A.java").write_text("public class A {\n}\n")
    out = tmp_path / "r.csv"
    expected = f"{project}:1:1: error: project name is not valid UTF-8\n"
    for extra in (["--out", str(out)], []):
        # a real process: its stderr escapes the undecodable byte, a capture buffer would not
        result = run_python("-m", "dimetrics.cli", "analyze", project, *extra)
        assert result.returncode == 2, result.stderr
        assert result.stdout == b""
        assert result.stderr == expected.encode("utf-8", "backslashreplace")
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("kind", ["fifo", "link to the null device"])
def test_a_source_file_that_is_not_a_regular_file_is_one_error(tmp_path, kind):
    """A FIFO would block the read, and a device might never end: neither is opened."""
    for name in ("p", "q"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "A.java").write_text("public class A {\n}\n")
    if kind == "fifo":
        os.mkfifo(tmp_path / "p" / "B.java")
    else:
        (tmp_path / "p" / "B.java").symlink_to(os.devnull)
    # a real process with a timeout, so that a read that blocks fails the test
    result = run_python("-m", "dimetrics.cli", "analyze", "p", "q", cwd=tmp_path, timeout=30)
    assert result.returncode == 1
    assert result.stderr == b"p/B.java:1:1: error: cannot read file: not a regular file\n"
    rows = result.stdout.decode().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["q"]


def test_parse_report_csv_errors_carry_line_numbers():
    with pytest.raises(ReportFormatError) as excinfo:
        parse_report_csv("not,a,header\n")
    assert excinfo.value.line == 1
    with pytest.raises(ReportFormatError) as excinfo:
        parse_report_csv(CSV_HEADER + "\np,0.1,1,1\n")
    assert excinfo.value.line == 2
    with pytest.raises(ReportFormatError) as excinfo:
        parse_report_csv(f"{CSV_HEADER}\na\rb\n")  # a bare CR that no file read leaves
    assert excinfo.value.line == 2
    assert str(excinfo.value).startswith("malformed CSV: new-line character seen")
    with pytest.raises(ReportFormatError) as excinfo:  # a record that starts on line 3
        parse_report_csv(f'{CSV_HEADER}\n\n"x\ny",1\n')
    assert excinfo.value.line == 3
    good = ["p", "0.50", "1", "1", "0", "1", "8", "0.5", "0.4", "0", "0.5", "0.6", "0.7"]
    bad_cells = [
        ("dmai", "nan", "not finite"),
        ("cbo", "inf", "not finite"),
        ("rfc", "-inf", "not finite"),
        ("di", "NaN", "not finite"),
        ("di", "1.01", "outside [0, 1]"),
        ("ncbo", "-0.01", "outside [0, 1]"),
        ("ndcbo", "2", "outside [0, 1]"),
        ("nlcom", "1.5", "outside [0, 1]"),
        ("nrfc", "-1", "outside [0, 1]"),
        ("mai", "1.10", "outside [0, 1]"),
        ("dmai", "-0.20", "outside [0, 1]"),
        ("cbo", "-1", "negative"),
        ("dcbo", "-0.5", "negative"),
        ("lcom", "-2", "negative"),
        ("rfc", "-1e-9", "negative"),
        ("loc", "-5", "negative"),
    ]
    for column, cell, reason in bad_cells:
        record = list(good)
        record[CSV_COLUMNS.index(column)] = cell
        text = CSV_HEADER + "\n" + ",".join(good) + "\n" + ",".join(record) + "\n"
        with pytest.raises(ReportFormatError) as excinfo:
            parse_report_csv(text)
        message = f"{column} {cell!r} is {reason}"
        if reason == "not finite":
            message = f"{column} is not finite: {cell!r}"
        assert (excinfo.value.line, str(excinfo.value)) == (3, message), (column, cell)
    # the unit-interval bounds themselves are valid
    edge = ["p", "0", "1", "1", "0", "1", "8", "1", "1", "0", "1", "0", "1.00"]
    assert parse_report_csv(CSV_HEADER + "\n" + ",".join(edge) + "\n")[0].dmai == 1.0


def test_chart_has_four_series_of_eleven_points(report, tmp_path):
    svg_path = tmp_path / "trends.svg"
    assert main(["chart", report, str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 44  # 4 series x 11 points
    assert svg.count("stroke-dasharray") == 4  # one trendline per series


def test_chart_two_rows_has_trendlines(tmp_path):
    svg = render_chart(parse_report_csv(TWO_ROW_REPORT))
    assert svg.count("<circle") == 8
    assert svg.count("stroke-dasharray") == 4


def test_chart_svg_is_pinned(report):
    digests = [
        hashlib.sha256(render_chart(parse_report_csv(text)).encode()).hexdigest()
        for text in (Path(report).read_text(), TWO_ROW_REPORT)
    ]
    assert digests == [
        "00a64ec4b25feb78a8ae66d6a322f502b491347fb64c09a83b5f7c094a2fa08b",
        "af24ee5fc8005bdf5358dbf2385f053fe64da4d889f1166a96f9c77f6ec5e4de",
    ]


def test_chart_single_row_omits_trendlines(tmp_path):
    rows = parse_report_csv(CSV_HEADER + "\nonly,0.50,1,1,0,1,8,0.5,0.4,0,0.5,0.6,0.7\n")
    svg = render_chart(rows)
    assert svg.count("<circle") == 4
    assert "stroke-dasharray" not in svg


def test_least_squares_degenerate_cases():
    assert least_squares([(0.5, 1.0)]) is None
    assert least_squares([(0.5, 1.0), (0.5, 2.0)]) is None
    slope, intercept = least_squares([(0.0, 1.0), (1.0, 3.0)])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)


def test_outputs_do_not_depend_on_the_hash_seed(reproduced):
    """Fresh interpreters under PYTHONHASHSEED 0 and 1 print and write the same bytes."""
    assert reproduced["0"] == reproduced["1"]


# --- calls in the workspace ---------------------------------------------------
# Every call checked with ``calls``, one row per call: the ID of the test that
# runs the row, the argv, the exit code, and the exact stdout and stderr.  A
# failing call prints its one stderr line and nothing on stdout.
USAGE = """\
usage: dimetrics analyze PATH... [--format csv|json] [--out FILE]
       dimetrics generate OUTPUT_ROOT [--step N]
       dimetrics stats REPORT_CSV [--threshold T] [--boundary exclude|lower|upper] \
[--metric mai|dmai] [--alpha A]
       dimetrics chart REPORT_CSV OUT_SVG
"""
HEAD = f"{CSV_HEADER}\n"
DI_0 = "di_0,0.00,1.82,1.82,0.00,2.91,108,0.65,0.65,0.00,0.74,0.54,0.54\n"
# the same row as JSON: the full-precision values in column order, then the
# display strings, project and loc first
DI_0_JSON = """\
[
  {
    "project": "di_0",
    "di": 0.0,
    "cbo": 1.8181818181818181,
    "dcbo": 1.8181818181818181,
    "lcom": 0.0,
    "rfc": 2.909090909090909,
    "loc": 108,
    "ncbo": 0.6451612903225807,
    "ndcbo": 0.6451612903225807,
    "nlcom": 0.0,
    "nrfc": 0.7441860465116279,
    "mai": 0.5368842210552638,
    "dmai": 0.5368842210552638,
    "display": {
      "project": "di_0",
      "loc": "108",
      "di": "0.00",
      "cbo": "1.82",
      "dcbo": "1.82",
      "lcom": "0.00",
      "rfc": "2.91",
      "ncbo": "0.65",
      "ndcbo": "0.65",
      "nlcom": "0.00",
      "nrfc": "0.74",
      "mai": "0.54",
      "dmai": "0.54"
    }
  }
]
"""
# the cells after the name of a project of one two-line class that couples to nothing
UNCOUPLED = "0.00,0.00,0.00,0.00,0.00,2,0.00,0.00,0.00,0.00,1.00,1.00\n"
DMAI = _suite_stats("dmai")


def _range_rows(test_id: str, option: str, interval: str, bad: tuple, good: str) -> list:
    """``stats`` rejects each ``bad`` value of ``option``, exit 2, and runs with ``good``."""
    line = f"dimetrics:1:1: error: argument {option}: expected a number in {interval}, got {{!r}}\n"
    return [(test_id, ["stats", "report.csv", *argv], 2, "", line.format(value))
            for value in bad for argv in ([option, value], [f"{option}={value}"])
            ] + [(test_id, ["stats", "report.csv", option, good], 0, DMAI, "")]


EMPTY = ":1:1: error: empty path\n"
SPLIT = "cannot split at threshold {}: need at least 2 projects on each side, got {}\n"
BIG = ("big.csv:4:1: error: malformed CSV: field larger than field limit"
       f" ({csv.field_size_limit()})\n")
NAN = "nan.csv:3:1: error: dmai is not finite: 'nan'\n"
NEGATIVE = "negative.csv:3:1: error: loc '-5' is negative\n"
UNREADABLE = {
    "missing.csv": f"{NO_SUCH_FILE} 'missing.csv'",
    "binary.csv": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "": f"{NO_SUCH_FILE} ''",  # an empty path is no file, not the current directory
}
COMMAND = "expected a command (analyze|generate|stats|chart)"
USAGE_ERRORS = [
    ("no command", [], COMMAND),
    ("unknown command", ["frobnicate"], f"{COMMAND}, got 'frobnicate'"),
    ("unknown option", ["analyze", "a/x", "--form", "json"], "analyze: unknown option '--form'"),
    ("no value", ["analyze", "a/x", "--out"], "argument --out: expected a value"),
    ("bad choice", ["stats", "report.csv", "--metric", "cbo"],
     "argument --metric: expected mai|dmai, got 'cbo'"),
    ("bad choice after =", ["analyze", "a/x", "--format=xml"],
     "argument --format: expected csv|json, got 'xml'"),
    ("bad int", ["generate", "out", "--step", "x"],
     "argument --step: expected an integer, got 'x'"),
    ("missing positional", ["chart", "report.csv"], "chart takes REPORT_CSV OUT_SVG; 1 given"),
    ("no path", ["analyze", "--format", "json"], "analyze takes PATH...; 0 given"),
    ("extra positional", ["stats", "report.csv", "mai"], "stats takes REPORT_CSV; 2 given"),
    ("option after --", ["generate", "--", "--step", "x"], "generate takes OUTPUT_ROOT; 2 given"),
]
CALLS = [
    ("test_analyze_writes_to_stdout_by_default", ["analyze", "suite/di_0"], 0, HEAD + DI_0, ""),
    ("test_analyze_json_report_is_pinned", ["analyze", "suite/di_0", "--format", "json"], 0,
     DI_0_JSON, ""),
    # a project path is named, and printed in diagnostics, in its normal form
    ("test_a_project_path_is_used_in_its_normal_form[dot and slash]", ["analyze", "./suite/di_0/"],
     0, HEAD + DI_0, ""),
    ("test_a_project_path_is_used_in_its_normal_form[double slash]", ["analyze", "suite//di_0"],
     0, HEAD + DI_0, ""),
    ("test_a_project_path_is_used_in_its_normal_form[duplicate]",
     ["analyze", "suite//di_0/", "./suite/di_0/"], 2, "",
     "suite/di_0:1:1: error: duplicate project name 'di_0': suite/di_0 and suite/di_0\n"),
    ("test_a_project_path_is_used_in_its_normal_form[missing]", ["analyze", "./suite//nope/"], 2,
     "", "suite/nope:1:1: error: not a directory\n"),
    ("test_analyze_empty_directory_warns_and_reports_zeros", ["analyze", "empty"], 0,
     f"{HEAD}empty,0.00,0.00,0.00,0.00,0.00,0,0.00,0.00,0.00,0.00,1.00,1.00\n",
     "empty:1:1: warning: no .java files found\n"),
    ("test_analyze_unparsable_file_exits_1_without_partial_row", ["analyze", "a/x", "suite/di_0"],
     1, HEAD + DI_0, "a/x/Broken.java:1:33: error: unsupported character '+'\n"),
    ("test_analyze_deep_nesting_fails_only_its_project", ["analyze", "deep", "ok"], 1,
     f"{HEAD}ok,{UNCOUPLED}",
     "deep/A.java:5:614: error: argument lists nested more than 100 deep\n"),
    # the hidden class never became part of the project: 1 class, loc 2
    ("test_hidden_directories_are_skipped", ["analyze", "visible"], 0,
     f"{HEAD}visible,{UNCOUPLED}", ""),
    ("test_a_source_file_that_is_not_utf_8_is_one_error", ["analyze", "p", "q"], 1,
     f"{HEAD}q,{UNCOUPLED}", "p/B.java:1:1: error: cannot read file: 'utf-8' codec can't"
     " decode byte 0xff in position 0: invalid start byte\n"),
    ("test_stats_output_is_pinned", ["stats", "report.csv", "--metric", "mai"], 0,
     _suite_stats("mai"), ""),
    ("test_stats_reports_rejection_for_dmai",
     ["stats", "report.csv", "--metric", "dmai", "--alpha", "0.05"], 0, DMAI, ""),
    # p at 3 blocks retains at 0.05, and at 4 and 5 rejects; the exact sign test's
    # 0.25, 0.125 and 0.0625 would retain at all three
    *[(f"test_the_suite_p_value_depends_only_on_the_block_count[{blocks} blocks]",
       ["stats", "report.csv", "--threshold", threshold], 0, _suite_stats("dmai", blocks),
       "" if low == high else f"report.csv:1:1: warning: unequal group sizes ({low} vs {high});"
       " truncating to the shorter\n") for blocks, (threshold, (low, high), *_) in SPLITS.items()],
    *_range_rows("test_stats_alpha_must_lie_strictly_between_0_and_1", "--alpha", "(0, 1)",
                 ("7", "nan", "0", "1"), "0.05"),
    *_range_rows("test_stats_threshold_must_lie_in_the_unit_interval", "--threshold", "[0, 1]",
                 ("nan", "inf", "-0.1", "1.5", "half"), "0.5"),
    # -h or --help anywhere before --, even where a value would go
    *[(f"test_help_prints_the_synopsis_and_exits_0[argv{number}]", argv, 0, USAGE, "")
      for number, argv in enumerate([["-h"], ["--help"], ["stats", "--help"], ["frobnicate", "-h"],
                                     ["analyze", "p", "--out", "-h"]])],
    # ``Path("")`` is the current directory: it is neither analyzed nor written into
    *[(f"test_an_empty_path_is_a_usage_error[argv{number}]", argv, 2, "", EMPTY) for number, argv
      in enumerate([["analyze", ""], ["analyze", "", "--out", "new.csv"], ["generate", ""]])],
    ("test_analyze_missing_path_is_usage_error", ["analyze", "missing"], 2, "",
     "missing:1:1: error: not a directory\n"),
    ("test_analyze_duplicate_project_names_is_usage_error", ["analyze", "a/x", "b/x"], 2, "",
     "b/x:1:1: error: duplicate project name 'x': a/x and b/x\n"),
    ("test_generate_rejects_bad_step", ["generate", "x", "--step", "25"], 2, "",
     "x:1:1: error: step 25 yields a non-integral injected count at 25% with 10 pens\n"),
    ("test_generate_under_a_regular_file_is_one_error", ["generate", "file/suite"], 1, "",
     "file/suite:1:1: error: [Errno 20] Not a directory: 'file/suite/di_0'\n"),
    # thresholds 1 and 0 are valid, but every project lies on one side of them
    ("test_stats_rejects_single_group", ["stats", "report.csv", "--threshold", "1"], 1, "",
     "report.csv:1:1: error: " + SPLIT.format(1.0, "10 below and 0 above")),
    ("test_stats_rejects_single_group", ["stats", "report.csv", "--threshold", "0"], 1, "",
     "report.csv:1:1: error: " + SPLIT.format(0.0, "0 below and 10 above")),
    ("test_stats_on_one_row_report_is_a_positioned_error", ["stats", "one.csv"], 1, "",
     "one.csv:1:1: error: " + SPLIT.format(0.5, "1 below and 0 above")),
    ("test_stats_malformed_csv_names_line", ["stats", "oops.csv"], 1, "",
     "oops.csv:2:1: error: bad numeric field: could not convert string to float: 'oops'\n"),
    # the csv module's own error used to escape main as a traceback
    *[(f"test_csv_syntax_error_is_a_positioned_error[{command}]", _reading(command, "big.csv"), 1,
       "", BIG) for command in ("stats", "chart")],
    *[("test_stats_rejects_nan_report_with_line_number", _reading(command, "nan.csv"), 1, "", NAN)
      for command in ("stats", "chart")],
    *[(f"test_a_negative_count_is_a_positioned_error[{command}]",
       _reading(command, "negative.csv"), 1, "", NEGATIVE) for command in ("stats", "chart")],
    ("test_report_errors_name_the_first_line_of_their_record", ["stats", "record.csv"], 1, "",
     "record.csv:5:1: error: dmai is not finite: 'nan'\n"),
    *[(f"test_unreadable_report_is_a_positioned_error[{command}]", _reading(command, report), 1,
       "", f"{report}:1:1: error: cannot read report: {reason}\n")
      for command in ("stats", "chart") for report, reason in UNREADABLE.items()],
    *[("test_header_only_report_has_no_rows", _reading(command, "header.csv"), 1, "",
       "header.csv:1:1: error: report has no rows\n") for command in ("chart", "stats")],
    # usage errors, read from the COMMANDS table, are positioned at dimetrics:1:1
    *[(f"test_a_usage_error_is_one_positioned_line[{case}]", argv, 2, "",
       f"dimetrics:1:1: error: {line}\n") for case, argv, line in USAGE_ERRORS],
    *[(f"test_unwritable_output_is_a_positioned_error[{argv[0]}]", argv + [out], 1, "",
       f"{out}:1:1: error: cannot write {what}: {NO_SUCH_FILE} {out!r}\n")
      for argv, what in ((["analyze", *SUITE, "--out"], "report"),
                         (["chart", "report.csv"], "chart"))
      for out in ("missing/out", "")],  # "" is no file, not "."
]


def _calling(cases):
    """The test that runs ``calls`` on each case's rows, parametrized unless its one case is ""."""
    if list(cases) == [""]:
        def test(calls):
            for row in cases[""]:
                calls(*row)
        return test

    @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
    def test(rows, calls):
        for row in rows:
            calls(*row)
    return test


def _calling_tests():
    """The tests of CALLS by name; a test ID ``name[case]`` gives ``name`` a case."""
    cases_by_name = {}
    for test_id, *row in CALLS:
        name, _, case = test_id.rstrip("]").partition("[")
        cases_by_name.setdefault(name, {}).setdefault(case, []).append(row)
    return {name: _calling(cases) for name, cases in cases_by_name.items()}


globals().update(_calling_tests())


FULL = "[Errno 28] No space left on device"
ASCII = "'ascii' codec can't encode character '\\xe9' in position 67: ordinal not in range(128)"
# (argv, the device under stdout and its encoding, what is written, why it fails);
# a device of None is a closed stdout, as Python starts with descriptor 1 closed
STDOUT_FAILURES = {
    "analyze": (["analyze", "suite/di_0"], FullDevice, "utf-8", "report", FULL),
    "generate": (["generate", "suite"], FullDevice, "utf-8", "directory list", FULL),
    "stats": (["stats", "report.csv"], FullDevice, "utf-8", "statistics", FULL),
    "help": (["-h"], FullDevice, "utf-8", "usage", FULL),
    "ascii": (["analyze", "café"], io.BytesIO, "ascii", "report", ASCII),
    "closed": (["analyze", "suite/di_0"], None, None, "report", "stdout is closed"),
}


@pytest.mark.parametrize("case", list(STDOUT_FAILURES))
def test_a_result_stdout_cannot_take_is_one_positioned_error(case, calls):
    """``generate suite`` rewrites the suite as it is, so the workspace stays the same."""
    argv, device, encoding, what, reason = STDOUT_FAILURES[case]
    stdout = device and io.TextIOWrapper(device(), encoding, write_through=True)
    with contextlib.redirect_stdout(stdout):
        calls(argv, 1, "", f"<stdout>:1:1: error: cannot write {what}: {reason}\n")
    assert stdout is None or stdout.buffer.getvalue() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_stdout_is_not_flushed_again_at_exit():
    """A block-buffered stdout fails at its flush; Python's own flush of it at
    exit must add no traceback and leave the exit code 1, not 120."""
    child = ("import sys; sys.stdout = sys.__stdout__ = open('/dev/full', 'w');"
             " from dimetrics.cli import main; sys.exit(main(['-h']))")
    result = run_python("-c", child)
    line = f"<stdout>:1:1: error: cannot write usage: {FULL}\n".encode()
    assert (result.returncode, result.stdout, result.stderr) == (1, b"", line)


@pytest.mark.parametrize("device", [FullDevice, ClosedDevice], ids=["full", "closed"])
def test_a_failing_stderr_costs_no_row(device, calls):
    """``2>/dev/full``, or a descriptor 2 closed under the process: the first
    failed line drops stderr, the second is not tried, and di_0's row is still
    written.  The exit code 1 says that an error was dropped."""
    stderr = io.TextIOWrapper(device(), "utf-8", line_buffering=True)
    with contextlib.redirect_stderr(stderr):
        calls(["analyze", "deep", "suite/di_0", "a/x"], 1, HEAD + DI_0, "")
        assert sys.stderr is None


def test_a_child_started_without_stderr_writes_its_rows(workspace):
    """``dimetrics analyze a/x suite/di_0 2>&-``: the CLI starts with descriptor 2 closed."""
    child = ("import os, sys; os.close(2);"
             " os.execv(sys.executable, [sys.executable, '-m', 'dimetrics.cli', *sys.argv[1:]])")
    result = run_python("-c", child, "analyze", "a/x", "suite/di_0", cwd=workspace)
    assert (result.returncode, result.stdout, result.stderr) == (1, (HEAD + DI_0).encode(), b"")


def test_a_project_path_that_cannot_be_searched_is_its_projects_error(calls, monkeypatch):
    """A directory whose parent lacks the search bit fails its stat and its
    scandir with EACCES: one line at the project, and the other rows."""
    blocked = os.path.join("suite", "di_10")
    for name in ("stat", "scandir"):
        def failing(path, *args, call=getattr(os, name), **kwargs):
            if os.fspath(path) == blocked:
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return call(path, *args, **kwargs)

        monkeypatch.setattr(os, name, failing)
    calls(["analyze", "suite/di_0", blocked], 1, HEAD + DI_0,
          f"{blocked}:1:1: error: cannot read directory: [Errno 13] Permission denied:"
          f" {blocked!r}\n")


class Endless(io.RawIOBase):
    """A binary stream with no end: ``data(offset, size)`` gives its ``size``
    bytes from ``offset`` on."""

    def __init__(self, data):
        self.data, self.offset = data, 0

    def readable(self):
        return True

    def readinto(self, buffer):
        buffer[:] = self.data(self.offset, len(buffer))
        self.offset += len(buffer)
        return len(buffer)


def _decoding_error(data: bytes) -> str:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError("decodable")


LARGE = "report larger than 8388608 characters"
# each stream, as /dev/zero, ``yes`` and /dev/urandom give it, and the error it reads as
ENDLESS = {
    "nul": (lambda offset, size: bytes(size), LARGE),
    "yes": (lambda offset, size: (b"y\n" * (size // 2 + 1))[offset % 2:][:size], LARGE),
    "random": (lambda offset, size: random.Random(offset).randbytes(size),
               "cannot read report: " + _decoding_error(random.Random(0).randbytes(64))),
}


@pytest.mark.parametrize("stream", list(ENDLESS))
def test_an_endless_report_is_one_positioned_line(stream, calls, monkeypatch):
    """``stats`` and ``chart`` read at most the limit of a report that never
    ends, where reading it all would grow until memory runs out."""
    data, reason = ENDLESS[stream]

    def opening(file, *args, **kwargs):
        if file != "endless.csv":
            return open(file, *args, **kwargs)
        return io.TextIOWrapper(io.BufferedReader(Endless(data)), kwargs["encoding"])

    monkeypatch.setattr(cli, "open", opening, raising=False)
    for command in ("stats", "chart"):
        calls(_reading(command, "endless.csv"), 1, "", f"endless.csv:1:1: error: {reason}\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_stats_on_the_zero_device_is_one_positioned_line():
    """A child under the test run's address-space limit, which a read of all
    of /dev/zero meets as a MemoryError."""
    result = run_python("-m", "dimetrics.cli", "stats", "/dev/zero", timeout=30)
    line = f"/dev/zero:1:1: error: {LARGE}\n".encode()
    assert (result.returncode, result.stdout, result.stderr) == (1, b"", line)


# the functions whose k-th call fails, by the module where each is replaced: five of
# os (``Path.mkdir`` calls ``os.mkdir``), and the builtin open as cli's global
FAULTED = {"os.stat": os, "os.open": os, "os.read": os, "os.scandir": os, "os.mkdir": os,
           "cli.open": cli}
ERRNOS = (errno.EIO, errno.EACCES, errno.ENOSPC)
POSITIONED = re.compile(r".+:[0-9]+:[0-9]+: (error|warning): .+")


def test_every_os_fault_in_analyze_is_one_positioned_line(workspace, tmp_path, monkeypatch,
                                                          capsys):
    """``analyze a/x suite/di_0 suite/di_10 --out FILE``, where a/x does not parse, the
    same with ``--format json``, ``generate FILE --step 50``, ``stats report.csv`` and
    ``chart report.csv FILE``, each once for each k with the k-th call of one of
    ``FAULTED`` failing with each of ``ERRNOS``.  Each run exits 0, 1 or 2 with only
    positioned lines on stderr, and nonzero if one is an error; what it writes on exit
    0 is the unfaulted run's.  Each row that ``analyze`` writes is the unfaulted run's,
    and a good project that the fault did not touch (by the failed call's path;
    ``os.read``'s is the path its descriptor was opened on) has its row, unless the
    fault was the report's own ``open``."""
    monkeypatch.chdir(workspace)
    projects, out = ["a/x", "suite/di_0", "suite/di_10"], str(tmp_path / "out")
    commands = {"analyze": ["analyze", *projects, "--out", out],
                "analyze json": ["analyze", *projects, "--format", "json", "--out", out],
                "generate": ["generate", out, "--step", "50"], "stats": ["stats", "report.csv"],
                "chart": ["chart", "report.csv", out]}
    fault, counts, opened, faulted = {}, {}, {}, []  # faulted: the path of the failed call
    for point, module in FAULTED.items():
        name = point.partition(".")[2]

        def call(target, *args, point=point, real=getattr(module, name, open), **kwargs):
            if not fault:  # an unfaulted run, or the test reading its output
                return real(target, *args, **kwargs)
            counts[point] = counts.get(point, 0) + 1
            path = opened.get(target) if point == "os.read" else os.fspath(target)
            if fault.get(point) == counts[point]:
                faulted.append(path)
                raise OSError(fault["errno"], os.strerror(fault["errno"]), path)
            result = real(target, *args, **kwargs)
            if point == "os.open":
                opened[result] = path
            return result

        monkeypatch.setattr(module, name, call, raising=False)

    def run(command, **plan):
        """The exit code, stdout, stderr and the output: what ``stats`` wrote to
        stdout, what ``generate`` printed with each file it wrote, or what the
        others wrote to ``out`` (None if nothing)."""
        fault.clear()
        fault.update(plan)
        counts.clear()
        faulted.clear()
        code = main(commands[command])
        fault.clear()  # the output is read with no fault
        stdout, stderr = capsys.readouterr()
        if os.path.isdir(out):
            files = {path: path.read_bytes() for path in Path(out).rglob("*") if path.is_file()}
            shutil.rmtree(out)
            return code, stdout, stderr, (stdout, files)
        try:
            with open(out, encoding="utf-8") as file:
                output = file.read()
            os.remove(out)
        except FileNotFoundError:
            output = stdout if command == "stats" else None
        return code, stdout, stderr, output

    def rows(command, output):
        if command == "analyze json":
            return {row["project"]: row for row in json.loads(output or "[]")}
        return {row.split(",", 1)[0]: row for row in (output or "").splitlines()[1:]}

    runs = dict.fromkeys(commands, 0)
    for command in commands:
        analyze = command.startswith("analyze")
        code, _, _, expected = run(command)
        assert code == analyze and expected, command
        assert not analyze or sorted(rows(command, expected)) == ["di_0", "di_10"]
        for point, number in itertools.product(FAULTED, ERRNOS):
            for k in itertools.count(1):
                code, stdout, stderr, output = run(command, **{point: k, "errno": number})
                if not faulted:  # the command makes fewer than k such calls
                    break
                runs[command] += 1
                case = (command, point, k, number, faulted[0], code, stdout, stderr)
                assert code in (0, 1, 2), case
                assert stdout == "" or code == 0 and command in ("stats", "generate"), case
                assert all(POSITIONED.fullmatch(line) for line in stderr.splitlines()), case
                assert code != 0 or ": error: " not in stderr, case
                if not analyze:
                    assert code != 0 or output == expected, case
                    continue
                touched = {project.rsplit("/", 1)[-1] for project in projects
                           if faulted[0] == project or faulted[0].startswith(project + "/")}
                kept = set() if faulted[0] == out else set(rows(command, expected)) - touched
                assert all(rows(command, expected).get(name) == row
                           for name, row in rows(command, output).items()), case
                assert kept <= set(rows(command, output)), case
    print(f"faulted runs: {sum(runs.values())} {runs} (the k-th call of {', '.join(FAULTED)};"
          " EIO, EACCES, then ENOSPC)")


# ``python -m dimetrics.cli -h`` as runpy runs it, under a wrapper with an
# atexit hook, which only an interpreter that tears itself down runs.  Tier-1
# may run in development mode; these children do so only when asked.
AT_EXIT = ("import atexit, os, runpy; atexit.register(os.write, 2, b'teardown\\n');"
           " runpy.run_module('dimetrics.cli', run_name='__main__', alter_sys=True)")
NO_DEV_MODE = {"PYTHONDEVMODE": ""}


@pytest.mark.parametrize("options, hook", [([], b""), (["-X", "dev"], b"teardown\n")],
                         ids=["plain", "dev"])
def test_the_cli_skips_teardown_outside_development_mode(options, hook):
    result = run_python(*options, "-c", AT_EXIT, "-h", env=NO_DEV_MODE)
    assert (result.returncode, result.stdout, result.stderr) == (0, USAGE.encode(), hook)


def test_a_profiled_cli_prints_its_profile():
    """cProfile prints its table after the module returns, so the CLI under
    it must exit as usual."""
    result = run_python("-m", "cProfile", "-m", "dimetrics.cli", "-h", env=NO_DEV_MODE)
    usage, table = result.stdout[:len(USAGE)], result.stdout[len(USAGE):]
    assert (result.returncode, usage, result.stderr) == (0, USAGE.encode(), b"")
    assert b" function calls " in table and b"Ordered by: " in table
