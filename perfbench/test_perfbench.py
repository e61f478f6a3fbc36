"""Tests of the benchmark's own parts: writer, plan oracle and failure counting.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dimetrics.analysis import analyze_directory  # noqa: E402
from dimetrics.frontend import discover_source_files, load_source_file, parse_source  # noqa: E402
from dimetrics.generator import generate_suite  # noqa: E402
from dimetrics.report import report_row, rows_to_csv  # noqa: E402


def _report(dirs) -> str:
    rows = []
    for directory in dirs:
        analysis, diagnostics = analyze_directory(directory)
        assert analysis is not None, diagnostics
        rows.append(report_row(analysis))
    return rows_to_csv(sorted(rows, key=lambda row: row.project))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_writer_output_parses_without_diagnostics(tmp_path, seed):
    synth.write_large_project(tmp_path / "large", seed, classes=12)
    synth.write_corpus(tmp_path / "corpus", seed, projects=3)
    files = discover_source_files(tmp_path)
    assert len(files) >= 12 + 3 * 4
    for path in files:
        models, diagnostics = parse_source(load_source_file(path))
        assert diagnostics == [], diagnostics
        assert len(models) == 1


def test_writer_is_deterministic_per_seed(tmp_path):
    first = synth.write_corpus(tmp_path / "a", 7, projects=3)
    second = synth.write_corpus(tmp_path / "b", 7, projects=3)
    assert [oracle.plan_row(p) for p in first] == [oracle.plan_row(p) for p in second]
    for path in discover_source_files(tmp_path / "a"):
        twin = tmp_path / "b" / path.relative_to(tmp_path / "a")
        assert path.read_bytes() == twin.read_bytes()
    other = synth.write_corpus(tmp_path / "c", 8, projects=3)
    assert [oracle.plan_row(p) for p in other] != [oracle.plan_row(p) for p in first]


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_plan_oracle_agrees_with_analyze(tmp_path, seed):
    plans = synth.write_large_project(tmp_path, seed, classes=40)
    plans += synth.write_corpus(tmp_path, seed, projects=6)
    text = _report(tmp_path / plan.name for plan in plans)
    assert oracle.check_csv(text, [oracle.plan_row(plan) for plan in plans]) == []


def test_closed_forms_agree_with_the_generated_suite(tmp_path):
    dirs = generate_suite(tmp_path, step=10)
    assert oracle.check_csv(_report(dirs), oracle.suite_rows()) == []


def test_lcom1_from_groups_matches_the_pairwise_definition():
    accesses = [frozenset(s) for s in ({"a"}, {"a", "b"}, set(), {"c"}, {"c"}, {"b"}, set())]
    sharing = disjoint = 0
    for i, first in enumerate(accesses):
        for second in accesses[i + 1 :]:
            if first & second:
                sharing += 1
            else:
                disjoint += 1
    assert oracle.lcom1(accesses) == max(disjoint - sharing, 0) == 15


def _plant(text: str, column: str, value: str) -> str:
    records = list(csv.reader(io.StringIO(text)))
    records[1][oracle.COLUMNS.index(column)] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(records)
    return out.getvalue()


@pytest.mark.parametrize("column", ["cbo", "dcbo", "di", "loc", "mai"])
def test_planted_mismatch_is_counted_as_a_failure(tmp_path, column):
    plans = synth.write_corpus(tmp_path, 11, projects=3)
    expected = [oracle.plan_row(plan) for plan in plans]
    text = _report(tmp_path / plan.name for plan in plans)
    tally = workloads.Tally()
    tally.add(oracle.check_csv(text, expected), {"report.csv": "a"})
    planted = _plant(text, column, "9.99" if column != "loc" else "1")
    tally.add(oracle.check_csv(planted, expected), {"report.csv": "a"})
    assert (tally.attempted, tally.failed) == (2, 1)


def test_changed_output_bytes_are_counted_as_a_failure():
    tally = workloads.Tally()
    tally.add([], {"report.csv": "a", "trends.svg": "b"})
    tally.add([], {"report.csv": "a", "trends.svg": "b"})
    tally.add([], {"report.csv": "a", "trends.svg": "c"})
    assert (tally.attempted, tally.failed) == (3, 1)


def test_stats_check_wants_the_paper_verdict():
    rows = oracle.suite_rows()
    text = "blocks: 5  treatments: 2\ndecision at alpha=0.05: retain\n"
    assert oracle.check_stats(text, rows) == []
    assert oracle.check_stats(text, rows, "reject") != []
    assert oracle.check_stats(text.replace("5", "4", 1), rows) != []


def test_benchmark_json_lists_what_the_traced_run_reports():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    reported = {
        "cli.import_s", "analysis.directory_s", "analysis.coverage", "frontend.tokens_per_s",
        "trace.overhead_s",
        *tracing.SELF_TIMES, *tracing.COUNTS, *tracing.GROWTH_LAYERS,
    }
    assert {m["name"] for m in doc["per_layer"]} == reported
    assert all(tracing.unit_of(m["name"]) == m["unit"] for m in doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)


def test_malformed_outputs_are_failures_not_crashes(tmp_path):
    study = workloads.write_inputs("paper_suite", tmp_path, 0)
    op = tmp_path / "op"
    op.mkdir()
    (op / "generate.txt").write_text("\n".join(workloads.SUITE_DIRS) + "\n")
    names = sorted(row.project for row in oracle.suite_rows())
    (op / "report.csv").write_text(
        ",".join(oracle.COLUMNS) + "\n" + "".join(f"{name}{',x' * 12}\n" for name in names))
    (op / "report.json").write_text("not json")
    for name in ("stats_mai.txt", "stats_dmai.txt", "trends.svg"):
        (op / name).write_text("")
    problems, _ = study.check(tmp_path)
    assert any(problem.startswith("malformed output") for problem in problems)
