"""CLI, report serialization, and chart tests."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from dimetrics import analysis
from dimetrics.chart import least_squares, render_chart
from dimetrics.cli import main
from dimetrics.generator import generate_suite
from dimetrics.report import (
    CSV_COLUMNS,
    ReportFormatError,
    format_decimal,
    parse_report_csv,
)

from conftest import FullDevice, run_python

CSV_HEADER = ",".join(CSV_COLUMNS)

CELLS = "0.10,1,1,0,1,8,0.5,0.5,0,0.5,0.6"  # a row's cells from di to mai
TWO_ROW_REPORT = f"{CSV_HEADER}\na,{CELLS},0.6\nb,0.90,1,1,0,1,8,0.4,0.3,0,0.4,0.7,0.8\n"

# `stats` on the generated suite's report; mai and dmai split identically
SUITE_STATS = """\
metric: {metric}
blocks: 5  treatments: 2
Friedman chi-square: 5.000000 (df=1)
p-value: 0.025347
mean ranks: No DI=1.000  DI=2.000
Holm pairwise comparisons:
  No DI vs DI: z=2.2361 raw p=0.025347 adjusted p=0.025347 -> reject
decision at alpha=0.05: reject
"""

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
    assert format_decimal(1.545) == "1.55"
    assert format_decimal(0.125) == "0.13"
    assert format_decimal(2.0) == "2.00"
    assert format_decimal(20 / 11) == "1.82"


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
        assert format_decimal(entry["dcbo"]) == entry["display"]["dcbo"]
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
# the cells after the name of a project of one two-line class that couples to nothing
UNCOUPLED = "0.00,0.00,0.00,0.00,0.00,2,0.00,0.00,0.00,0.00,1.00,1.00\n"
DMAI = SUITE_STATS.format(metric="dmai")


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
     SUITE_STATS.format(metric="mai"), ""),
    ("test_stats_reports_rejection_for_dmai",
     ["stats", "report.csv", "--metric", "dmai", "--alpha", "0.05"], 0, DMAI, ""),
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
