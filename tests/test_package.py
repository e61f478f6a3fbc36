"""The package root: the one name README's "Library" section documents."""
from __future__ import annotations

from dataclasses import fields

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
