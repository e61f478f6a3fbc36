"""Generator tests: file inventory, line counts, round-trip parsing."""
from __future__ import annotations

import pytest

from dimetrics.analysis import analyze_directory
from dimetrics.frontend import load_source_file, parse_source
from dimetrics.generator import ExperimentSpec, generate_project, generate_suite


def test_generate_project_writes_expected_files(tmp_path):
    paths = generate_project(ExperimentSpec(output_dir=tmp_path / "p", injected_count=3))
    assert len(paths) == 11
    assert paths[0].name == "Dog.java"
    assert {p.name for p in paths[1:]} == {f"DogPen{i}.java" for i in range(1, 11)}


def test_generated_line_counts_are_8_8_10(tmp_path):
    generate_project(ExperimentSpec(output_dir=tmp_path, injected_count=4))
    def file_loc(name):
        models, diagnostics = parse_source(load_source_file(tmp_path / name))
        assert diagnostics == []
        return models[0].file_line_count

    assert file_loc("Dog.java") == 8
    assert file_loc("DogPen1.java") == 8  # injected
    assert file_loc("DogPen9.java") == 10  # default


def test_generated_source_round_trips_through_the_parser(tmp_path):
    paths = generate_project(ExperimentSpec(output_dir=tmp_path, injected_count=5))
    for path in paths:
        models, diagnostics = parse_source(load_source_file(path))
        assert diagnostics == []
        assert len(models) == 1
        model = models[0]
        assert len(model.methods) == 2
        assert len(model.fields) == 1
    injected = parse_source(load_source_file(tmp_path / "DogPen2.java"))[0][0]
    default = parse_source(load_source_file(tmp_path / "DogPen8.java"))[0][0]
    assert injected.methods[0].param_types == ("Dog",)
    assert injected.methods[0].instantiated_types == ()
    assert default.methods[0].param_types == ()
    assert default.methods[0].instantiated_types == ("Dog",)
    dog = parse_source(load_source_file(tmp_path / "Dog.java"))[0][0]
    assert dog.methods[0].is_constructor and dog.methods[0].param_types == ("String",)
    assert dog.methods[1].return_type == "String"


def test_single_pen_project_metrics(tmp_path):
    generate_project(ExperimentSpec(output_dir=tmp_path, injected_count=0, pen_count=1))
    analysis, diagnostics = analyze_directory(tmp_path)
    assert diagnostics == []
    assert sum(cm.cbo for cm in analysis.metrics.class_metrics) == 2
    assert analysis.metrics.mean_cbo == 1.0


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(output_dir=".", injected_count=11)
    with pytest.raises(ValueError):
        ExperimentSpec(output_dir=".", injected_count=-1)
    with pytest.raises(ValueError):
        ExperimentSpec(output_dir=".", injected_count=0, pen_count=0)


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
