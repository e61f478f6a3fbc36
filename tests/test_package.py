"""What README points users at: the package root's one name, the reproduce
script, and a test suite whose modules share helpers only through conftest."""
from __future__ import annotations

import ast
from collections import Counter

import dimetrics
from dimetrics.generator import generate_suite

from conftest import ROOT


def test_readme_library_example(tmp_path):
    assert dimetrics.__all__ == ["analyze_directory"]
    generate_suite(tmp_path / "projects", step=50)
    analysis, diagnostics = dimetrics.analyze_directory(tmp_path / "projects" / "di_50")
    assert diagnostics == []
    assert analysis._fields == ("name", "graph", "injections", "metrics", "scores")
    assert analysis.name == "di_50"
    findings = analysis.injections.findings
    assert findings[0] == ("DogPen1", "Dog", "CND")
    assert len(findings) == analysis.graph.edge_count == 10
    assert {f.dependency_class for f in findings} == {"Dog"}
    assert Counter(f.pattern for f in findings) == {"CND": 5, "HARD": 5}
    assert (analysis.metrics.mean_cbo, analysis.metrics.di_proportion) == (20 / 11, 0.5)
    assert analysis.scores.dmai > analysis.scores.mai
    assert analysis.scores._replace(mai=0.5) == (*analysis.scores[:4], 0.5, analysis.scores.dmai)
    assert list(analysis.scores._asdict()) == ["ncbo", "nrfc", "nlcom", "ndcbo", "mai", "dmai"]


def test_reproduce_script_runs_the_experiment(reproduced):
    code, stdout, stderr, written = reproduced["0"]
    assert code == 0, stderr
    assert stderr == b""
    assert {"out/report.csv", "out/report.json", "out/trends.svg"} <= written.keys()
    assert stdout.endswith(b"decision at alpha=0.05: reject\n")


def test_no_test_module_imports_another():
    paths = sorted((ROOT / "tests").glob("test_*.py"))
    modules = {path.stem for path in paths}
    for path in paths:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported.update([node.module or "", *(alias.name for alias in node.names)])
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        parts = {part for name in imported for part in name.split(".")}
        assert parts.isdisjoint(modules), (path.name, sorted(parts & modules))
