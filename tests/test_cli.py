"""CLI, report serialization, and chart tests."""
from __future__ import annotations

import json
import re

import pytest

from dimetrics.chart import least_squares, render_chart
from dimetrics.cli import main
from dimetrics.report import (
    CSV_COLUMNS,
    CSV_HEADER,
    ReportFormatError,
    format_decimal,
    parse_report_csv,
)


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


def test_analyze_missing_path_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/project"]) == 2
    assert "not a directory" in capsys.readouterr().err


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
    assert "duplicate project name 'x'" in captured.err
    assert str(first) in captured.err and str(second) in captured.err


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
    assert "error" in capsys.readouterr().err


def test_stats_rejects_single_group(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(out)]) == 0
    assert main(["stats", str(out), "--threshold", "2.0"]) == 1
    assert "threshold" in capsys.readouterr().err


def test_stats_reports_rejection_for_dmai(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["analyze", *suite, "--out", str(out)]) == 0
    assert main(["stats", str(out), "--metric", "dmai", "--alpha", "0.05"]) == 0
    text = capsys.readouterr().out
    assert "chi-square: 5.000000" in text
    assert "p-value: 0.0253" in text
    assert text.strip().endswith("reject")


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
    rows = parse_report_csv(
        CSV_HEADER
        + "\na,0.10,1,1,0,1,8,0.5,0.5,0,0.5,0.6,0.6"
        + "\nb,0.90,1,1,0,1,8,0.4,0.3,0,0.4,0.7,0.8\n"
    )
    svg = render_chart(rows)
    assert svg.count("<circle") == 8
    assert svg.count("stroke-dasharray") == 4


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
