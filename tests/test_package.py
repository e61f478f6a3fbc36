"""What README points users at: the package root's one name and the reproduce script."""
from __future__ import annotations

import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import dimetrics
from dimetrics.generator import generate_suite


def test_readme_library_example(tmp_path):
    assert dimetrics.__all__ == ["analyze_directory"]
    generate_suite(tmp_path / "projects", step=50)
    analysis, diagnostics = dimetrics.analyze_directory(tmp_path / "projects" / "di_50")
    assert diagnostics == []
    assert [field.name for field in fields(analysis)] == ["name", "metrics", "scores"]
    assert analysis.name == "di_50"
    assert (analysis.metrics.mean_cbo, analysis.metrics.di_proportion) == (20 / 11, 0.5)
    assert analysis.scores.dmai > analysis.scores.mai


def test_reproduce_script_runs_the_experiment(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_experiment.py"
    result = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    for name in ("report.csv", "report.json", "trends.svg"):
        assert (tmp_path / name).is_file(), name
    assert result.stdout.endswith("decision at alpha=0.05: reject\n")
