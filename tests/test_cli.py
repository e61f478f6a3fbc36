"""CLI, report serialization, and chart tests."""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dimetrics
from dimetrics.chart import least_squares, render_chart
from dimetrics.cli import main
from dimetrics.generator import generate_suite
from dimetrics.report import (
    CSV_COLUMNS,
    CSV_HEADER,
    ReportFormatError,
    format_decimal,
    parse_report_csv,
)

SRC = str(Path(dimetrics.__file__).resolve().parents[1])

TWO_ROW_REPORT = (
    CSV_HEADER
    + "\na,0.10,1,1,0,1,8,0.5,0.5,0,0.5,0.6,0.6"
    + "\nb,0.90,1,1,0,1,8,0.4,0.3,0,0.4,0.7,0.8\n"
)

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


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    assert main(["generate", str(root / "projects"), "--step", "10"]) == 0
    return sorted(str(p) for p in (root / "projects").iterdir())


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


def test_analyze_writes_to_stdout_by_default(suite, capsys):
    assert main(["analyze", suite[0]]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_HEADER)


def test_json_report_is_lossless(suite, tmp_path):
    csv_out = tmp_path / "report.csv"
    json_out = tmp_path / "report.json"
    assert main(["analyze", *suite, "--out", str(csv_out)]) == 0
    assert main(["analyze", *suite, "--format", "json", "--out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    rows = parse_report_csv(csv_out.read_text())
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


def test_analyze_empty_directory_warns_and_reports_zeros(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", str(empty)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    row = captured.out.strip().splitlines()[1].split(",")
    assert row[0] == "empty"
    assert row[1:7] == ["0.00", "0.00", "0.00", "0.00", "0.00", "0"]
    assert row[11] == row[12] == "1.00"  # indices of an empty project


def test_analyze_unparsable_file_exits_1_without_partial_row(suite, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "Broken.java").write_text("public class Broken { int x = 1 + 1; }\n")
    assert main(["analyze", str(bad), suite[0]]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err
    lines = captured.out.strip().splitlines()
    assert len(lines) == 2  # header + the good project only
    assert lines[1].startswith("di_0,")


def test_analyze_deep_nesting_fails_only_its_project(tmp_path, capsys):
    deep = tmp_path / "deep"
    ok = tmp_path / "ok"
    deep.mkdir()
    ok.mkdir()
    nested = "new A(" * 600 + "null" + ")" * 600
    (deep / "A.java").write_text(
        "class A {\n    A(A a) {\n    }\n    void m() {\n        %s;\n    }\n}\n" % nested
    )
    (ok / "B.java").write_text("public class B {\n}\n")
    assert main(["analyze", str(deep), str(ok)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r".*/deep/A\.java:5:\d+: error: [^\n]*\n", captured.err)
    lines = captured.out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("ok,")


def test_analyze_tree_deeper_than_the_recursion_limit(tmp_path, capsys):
    suite_dirs = generate_suite(tmp_path / "suite", step=100)
    project = tmp_path / "deep" / "proj"
    project.mkdir(parents=True)
    leaf = project
    for _ in range(1200):  # mkdir(parents=True) would recurse once per level
        leaf = leaf / "d"
        leaf.mkdir()
    (leaf / "A.java").write_text("public class A {\n}\n")
    try:
        assert main(["analyze", str(project), str(suite_dirs[0])]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["di_0", "proj"]
        assert rows[1].split(",")[6] == "2"
    finally:  # removed bottom-up: recursive removal fails at this depth
        (leaf / "A.java").unlink()
        while leaf != project:
            leaf.rmdir()
            leaf = leaf.parent


def test_analyze_dot_is_named_after_the_current_directory(suite, monkeypatch, capsys):
    monkeypatch.chdir(suite[0])
    assert main(["analyze", "."]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("di_0,")
    assert main(["analyze", ".", "../di_0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "../di_0:1:1: error: duplicate project name 'di_0': . and ../di_0\n"


def test_analyze_missing_path_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/project"]) == 2
    assert capsys.readouterr().err == "/nonexistent/project:1:1: error: not a directory\n"


def test_analyze_duplicate_project_names_is_usage_error(tmp_path, capsys):
    first = tmp_path / "a" / "x"
    second = tmp_path / "b" / "x"
    for project in (first, second):
        project.mkdir(parents=True)
        # analyzing either project would print this file's parse error
        (project / "Broken.java").write_text("public class Broken { int x = 1 + 1; }\n")
    assert main(["analyze", str(first), str(second)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err == (
        f"{second}:1:1: error: duplicate project name 'x': {first} and {second}\n"
    )


def test_analyze_rejects_project_name_that_is_not_utf8(tmp_path):
    project = tmp_path / os.fsdecode(b"\xffproj")
    project.mkdir()
    (project / "A.java").write_text("public class A {\n}\n")
    out = tmp_path / "r.csv"
    expected = f"{project}:1:1: error: project name is not valid UTF-8\n"
    for extra in (["--out", str(out)], []):
        # a real process: its stderr escapes the undecodable byte, a capture buffer would not
        result = subprocess.run(
            [sys.executable, "-m", "dimetrics.cli", "analyze", str(project), *extra],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC},
            check=False,
        )
        assert result.returncode == 2, result.stderr
        assert result.stdout == b""
        assert result.stderr == expected.encode("utf-8", "backslashreplace")
    assert not out.exists()


def test_hidden_directories_are_skipped(tmp_path, capsys):
    project = tmp_path / "visible"
    (project / ".hidden").mkdir(parents=True)
    (project / ".hidden" / "Sneaky.java").write_text("public class Sneaky {\n}\n")
    (project / "Seen.java").write_text("public class Seen {\n}\n")
    assert main(["analyze", str(project)]) == 0
    # the hidden class never became part of the project: 1 class, loc 2
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[6] == "2"


def test_generate_rejects_bad_step(tmp_path, capsys):
    assert main(["generate", str(tmp_path / "x"), "--step", "25"]) == 2
    assert capsys.readouterr().err.startswith(f"{tmp_path / 'x'}:1:1: error: step 25 yields")


def test_stats_rejects_single_group(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(out)]) == 0
    assert main(["stats", str(out), "--threshold", "1"]) == 1
    assert "threshold" in capsys.readouterr().err


def test_stats_reports_rejection_for_dmai(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(out)]) == 0
    assert main(["stats", str(out), "--metric", "dmai", "--alpha", "0.05"]) == 0
    text = capsys.readouterr().out
    assert "chi-square: 5.000000" in text
    assert "p-value: 0.0253" in text
    assert text.strip().endswith("reject")


def test_stats_output_is_pinned(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(out)]) == 0
    for metric in ("mai", "dmai"):
        assert main(["stats", str(out), "--metric", metric]) == 0
        captured = capsys.readouterr()
        assert captured.out == SUITE_STATS.format(metric=metric)
        assert captured.err == ""


def test_stats_alpha_must_lie_strictly_between_0_and_1(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(out)]) == 0
    for alpha in ("7", "nan", "0", "1"):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", str(out), "--alpha", alpha])
        assert excinfo.value.code == 2, alpha
        err = capsys.readouterr().err
        assert f"argument --alpha: expected a number in (0, 1), got {alpha!r}" in err
    assert main(["stats", str(out), "--alpha", "0.05"]) == 0
    assert capsys.readouterr().out.endswith("decision at alpha=0.05: reject\n")


def test_stats_threshold_must_lie_in_the_unit_interval(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(out)]) == 0
    for threshold in ("nan", "inf", "-0.1", "1.5", "half"):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", str(out), "--threshold", threshold])
        assert excinfo.value.code == 2, threshold
        err = capsys.readouterr().err
        assert f"argument --threshold: expected a number in [0, 1], got {threshold!r}" in err
    for threshold in ("0", "1"):  # valid, but every project lies on one side
        assert main(["stats", str(out), "--threshold", threshold]) == 1
        assert "cannot split" in capsys.readouterr().err
    assert main(["stats", str(out), "--threshold", "0.5"]) == 0


def test_report_errors_name_the_first_line_of_their_record(tmp_path, capsys):
    cells = "0.10,1,1,0,1,8,0.5,0.5,0,0.5,0.6"
    bad = tmp_path / "bad.csv"
    bad.write_text(f'{CSV_HEADER}\n"a\nb",{cells},0.6\nc,{cells},0.6\ndi_10,{cells},nan\n')
    assert main(["stats", str(bad)]) == 1
    assert capsys.readouterr().err == f"{bad}:5:1: error: dmai is not finite: 'nan'\n"
    with pytest.raises(ReportFormatError) as excinfo:
        parse_report_csv(f'{CSV_HEADER}\n\n"x\ny",1\n')
    assert excinfo.value.line == 3


def test_stats_malformed_csv_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\np,0.1,oops,1,1,1,1,1,1,1,1,1,1\n")
    assert main(["stats", str(bad)]) == 1
    assert ":2:" in capsys.readouterr().err


def test_parse_report_csv_errors_carry_line_numbers():
    with pytest.raises(ReportFormatError) as excinfo:
        parse_report_csv("not,a,header\n")
    assert excinfo.value.line == 1
    with pytest.raises(ReportFormatError) as excinfo:
        parse_report_csv(CSV_HEADER + "\np,0.1,1,1\n")
    assert excinfo.value.line == 2
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
    ]
    for column, cell, fragment in bad_cells:
        record = list(good)
        record[CSV_COLUMNS.index(column)] = cell
        text = CSV_HEADER + "\n" + ",".join(good) + "\n" + ",".join(record) + "\n"
        with pytest.raises(ReportFormatError) as excinfo:
            parse_report_csv(text)
        assert excinfo.value.line == 3, (column, cell)
        assert column in str(excinfo.value) and fragment in str(excinfo.value)
    # the unit-interval bounds themselves are valid
    edge = ["p", "0", "1", "1", "0", "1", "8", "1", "1", "0", "1", "0", "1.00"]
    assert parse_report_csv(CSV_HEADER + "\n" + ",".join(edge) + "\n")[0].dmai == 1.0


def test_stats_on_one_row_report_is_a_positioned_error(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text(CSV_HEADER + "\na,0.10,1,1,0,1,8,0.5,0.5,0,0.5,0.6,0.6\n")
    assert main(["stats", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"{report}:1:1: error: cannot split at threshold 0.5: need at least 2 projects"
        " on each side, got 1 below and 0 above\n"
    )


def test_stats_rejects_nan_report_with_line_number(tmp_path, capsys):
    good = "a,0.10,1,1,0,1,8,0.5,0.5,0,0.5,0.6,0.6"
    report = tmp_path / "report.csv"
    report.write_text(CSV_HEADER + "\n" + good + "\nb,0.90,1,1,0,1,8,0.4,0.3,0,0.4,0.7,nan\n")
    assert main(["stats", str(report)]) == 1
    assert main(["chart", str(report), str(tmp_path / "trends.svg")]) == 1
    err = capsys.readouterr().err
    assert err.count(f"{report}:3:1: error: dmai is not finite") == 2
    assert not (tmp_path / "trends.svg").exists()


@pytest.mark.parametrize("command", ["stats", "chart"])
def test_unreadable_report_is_a_positioned_error(command, tmp_path, capsys):
    svg = tmp_path / "trends.svg"
    missing = tmp_path / "missing.csv"
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe")
    for report, reason in ((missing, "[Errno 2] "), (binary, "'utf-8' codec can't decode")):
        argv = [command, str(report)] + ([str(svg)] if command == "chart" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{report}:1:1: error: cannot read report: {reason}"), err
        assert err.count("\n") == 1
    assert not svg.exists()


def test_header_only_report_has_no_rows(tmp_path, capsys):
    report = tmp_path / "header.csv"
    report.write_text(CSV_HEADER + "\n")
    svg = tmp_path / "trends.svg"
    assert main(["chart", str(report), str(svg)]) == 1
    assert main(["stats", str(report)]) == 1
    assert capsys.readouterr().err == f"{report}:1:1: error: report has no rows\n" * 2
    assert not svg.exists()


@pytest.mark.parametrize("command", ["analyze", "chart"])
def test_unwritable_output_is_a_positioned_error(command, suite, tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(report)]) == 0
    out = tmp_path / "missing_dir" / "out"
    if command == "analyze":
        argv, what = ["analyze", *suite, "--out", str(out)], "report"
    else:
        argv, what = ["chart", str(report), str(out)], "chart"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{out}:1:1: error: cannot write {what}: [Errno 2] "), err
    assert err.count("\n") == 1


def test_chart_has_four_series_of_eleven_points(suite, tmp_path):
    report = tmp_path / "report.csv"
    svg_path = tmp_path / "trends.svg"
    assert main(["analyze", *suite, "--out", str(report)]) == 0
    assert main(["chart", str(report), str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 44  # 4 series x 11 points
    assert svg.count("stroke-dasharray") == 4  # one trendline per series


def test_chart_two_rows_has_trendlines(tmp_path):
    svg = render_chart(parse_report_csv(TWO_ROW_REPORT))
    assert svg.count("<circle") == 8
    assert svg.count("stroke-dasharray") == 4


def test_chart_svg_is_pinned(suite, tmp_path):
    report = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(report)]) == 0
    digests = [
        hashlib.sha256(render_chart(parse_report_csv(text)).encode()).hexdigest()
        for text in (report.read_text(), TWO_ROW_REPORT)
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


def test_repeated_runs_are_byte_identical(suite, tmp_path):
    first_csv = tmp_path / "a.csv"
    second_csv = tmp_path / "b.csv"
    assert main(["analyze", *suite, "--out", str(first_csv)]) == 0
    assert main(["analyze", *suite, "--out", str(second_csv)]) == 0
    assert first_csv.read_bytes() == second_csv.read_bytes()
    first_svg = tmp_path / "a.svg"
    second_svg = tmp_path / "b.svg"
    assert main(["chart", str(first_csv), str(first_svg)]) == 0
    assert main(["chart", str(second_csv), str(second_svg)]) == 0
    assert first_svg.read_bytes() == second_svg.read_bytes()
