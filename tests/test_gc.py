"""``analyze`` runs with the cyclic GC off: the analysis must make no
reference cycles, and the CLI must hand back the caller's GC state."""
from __future__ import annotations

import gc
from pathlib import Path

import pytest

from dimetrics import analysis, cli
from dimetrics.analysis import analyze_directory
from dimetrics.generator import generate_suite


def _project(root, name, files):
    project = root / name
    project.mkdir()
    for file_name, text in files.items():
        (project / file_name).write_text(text)
    return project


@pytest.fixture
def projects(tmp_path):
    """A suite project, three failing projects and a missing directory."""
    return [
        generate_suite(tmp_path / "suite", step=50)[1],
        _project(tmp_path, "syntax", {"A.java": "class A { int x = 1 + 1; }\n"}),
        _project(tmp_path, "lexical", {"A.java": "class A {\n  # }\n"}),
        _project(tmp_path, "duplicate", {"A.java": "class A { }\n", "B.java": "class A { }\n"}),
        tmp_path / "missing",
    ]


def test_analysis_makes_no_reference_cycles(projects):
    for project in projects:
        gc.collect()
        gc.disable()  # no collection in between may hide a cycle
        try:
            analyze_directory(project)
        finally:
            gc.enable()
        assert gc.collect() == 0, project


def test_analyze_loop_makes_no_reference_cycles(projects, monkeypatch, capsys):
    # the whole command, the reading of its command line included, on every
    # project that reaches the loop that runs with the GC off, and on a fault
    # raised deep in one project
    load = analysis.load_source_file

    def failing_load(path):
        if Path(path).parent == projects[0]:
            raise RuntimeError("simulated fault")
        return load(path)

    monkeypatch.setattr(analysis, "load_source_file", failing_load)
    gc.collect()
    gc.disable()
    try:
        assert cli.main(["analyze", *map(str, projects[:4]), "--format", "csv"]) == 1
    finally:
        gc.enable()
    assert gc.collect() == 0
    assert "RuntimeError: simulated fault" in capsys.readouterr().err


def test_analyze_directory_leaves_the_gc_state_alone(projects):
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            for project in projects:
                analyze_directory(project)
                assert gc.isenabled() is enabled, project
        finally:
            gc.enable()


@pytest.mark.parametrize("case", ["ok", "internal error", "failed write"])
@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_restores_the_callers_gc_state(enabled, case, projects, tmp_path, monkeypatch):
    argv = ["analyze", str(projects[0])]
    expected = 0
    if case == "internal error":
        def failing(root):
            assert not gc.isenabled()
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(analysis, "analyze_directory", failing)
        expected = 1
    elif case == "failed write":
        argv += ["--out", str(tmp_path / "missing_dir" / "out.csv")]
        expected = 1
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(argv) == expected
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
