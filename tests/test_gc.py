"""Every CLI command runs with the cyclic GC off: the analysis must make no
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


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The report of a six-project suite, which ``stats`` splits three to three."""
    root = tmp_path_factory.mktemp("report")
    projects = map(str, generate_suite(root / "suite", step=20))
    assert cli.main(["analyze", *projects, "--out", str(root / "report.csv")]) == 0
    return str(root / "report.csv")


# Each command's call on the fixtures' suite project and report, with its
# exit code; the "internal error" call fails inside the analysis.
CALLS = {
    "ok": (["analyze", "{project}"], 0),
    "internal error": (["analyze", "{project}"], 1),
    "failed write": (["analyze", "{project}", "--out", "{tmp}/missing_dir/out.csv"], 1),
    "json": (["analyze", "{project}", "--format", "json"], 0),
    "generate": (["generate", "{tmp}/generated", "--step", "50"], 0),
    "stats": (["stats", "{report}"], 0),
    "chart": (["chart", "{report}", "{tmp}/trends.svg"], 0),
    "help": (["-h"], 0),
    "usage error": (["analyze", "{project}", "--format", "xml"], 2),
}


@pytest.mark.parametrize("case", list(CALLS))
@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_restores_the_callers_gc_state(enabled, case, projects, report, tmp_path,
                                               monkeypatch):
    """Every command runs with the GC off, and gives back the caller's state."""
    argv, expected = CALLS[case]
    argv = [word.format(project=projects[0], report=report, tmp=tmp_path) for word in argv]
    if case == "internal error":
        def failing(root):
            assert not gc.isenabled()
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(analysis, "analyze_directory", failing)
    write = cli._write_file

    def writing(*args):
        assert not gc.isenabled()
        return write(*args)

    monkeypatch.setattr(cli, "_write_file", writing)
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(argv) == expected
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
