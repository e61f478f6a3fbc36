"""Generator tests: file inventory, line counts, round-trip parsing."""
from __future__ import annotations

import hashlib

import pytest

from dimetrics.analysis import analyze_directory
from dimetrics.frontend import load_source_file, parse_source
from dimetrics.generator import generate_suite

# sha256 over the sorted (relative path, length, bytes) of every suite file
SUITE_DIGEST = "da590977a2179445b0adea355f3020b1c730e54ff3a39969870c7cf1701c511e"


def _suite_project(root, percent):
    """The suite project with ``percent`` % of its 10 pens injected."""
    return generate_suite(root, step=10)[percent // 10]


def test_generate_project_writes_expected_files(tmp_path):
    paths = sorted(_suite_project(tmp_path, 30).iterdir())
    assert len(paths) == 11
    assert paths[0].name == "Dog.java"
    assert {p.name for p in paths[1:]} == {f"DogPen{i}.java" for i in range(1, 11)}


def test_generated_line_counts_are_8_8_10(tmp_path):
    project = _suite_project(tmp_path, 40)
    def file_loc(name):
        models, diagnostics = parse_source(load_source_file(project / name))
        assert diagnostics == []
        return models[0].file_line_count

    assert file_loc("Dog.java") == 8
    assert file_loc("DogPen1.java") == 8  # injected
    assert file_loc("DogPen9.java") == 10  # default


def test_generated_source_round_trips_through_the_parser(tmp_path):
    project = _suite_project(tmp_path, 50)
    for path in sorted(project.iterdir()):
        models, diagnostics = parse_source(load_source_file(path))
        assert diagnostics == []
        assert len(models) == 1
        model = models[0]
        assert len(model.methods) == 2
        assert len(model.fields) == 1
    injected = parse_source(load_source_file(project / "DogPen2.java"))[0][0]
    default = parse_source(load_source_file(project / "DogPen8.java"))[0][0]
    assert injected.methods[0].param_types == ("Dog",)
    assert injected.methods[0].instantiated_types == ()
    assert default.methods[0].param_types == ()
    assert default.methods[0].instantiated_types == ("Dog",)
    dog = parse_source(load_source_file(project / "Dog.java"))[0][0]
    assert dog.methods[0].is_constructor and dog.methods[0].param_types == ("String",)
    assert dog.methods[1].return_type == "String"


def test_suite_files_are_pinned(tmp_path):
    generate_suite(tmp_path, step=10)
    files = sorted(
        (p.relative_to(tmp_path).as_posix(), p.read_bytes())
        for p in tmp_path.rglob("*")
        if p.is_file()
    )
    assert len(files) == 121
    digest = hashlib.sha256()
    for relative, data in files:
        digest.update(relative.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    assert digest.hexdigest() == SUITE_DIGEST


def test_suite_step_10_creates_11_projects(tmp_path):
    dirs = generate_suite(tmp_path, step=10)
    assert [d.name for d in dirs] == [f"di_{p}" for p in range(0, 101, 10)]
    assert all(d.is_dir() for d in dirs)


def test_suite_step_100_creates_endpoints_only(tmp_path):
    dirs = generate_suite(tmp_path, step=100)
    assert [d.name for d in dirs] == ["di_0", "di_100"]


def test_suite_rejects_fractional_injection_steps(tmp_path):
    with pytest.raises(ValueError, match="non-integral"):
        generate_suite(tmp_path, step=25)
    with pytest.raises(ValueError, match="divide"):
        generate_suite(tmp_path, step=30)
    with pytest.raises(ValueError):
        generate_suite(tmp_path, step=0)


def test_suite_loc_follows_conversion_delta(tmp_path):
    dirs = generate_suite(tmp_path, step=10)
    for k, project_dir in enumerate(dirs):
        analysis, _ = analyze_directory(project_dir)
        assert analysis.metrics.total_loc == 108 - 2 * k
