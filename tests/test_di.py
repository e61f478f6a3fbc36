"""Injection detection, DIP, DI proportion, and DCBO tests."""
from __future__ import annotations

import pytest

from dimetrics.analysis import analyze_project_model
from dimetrics.di import (
    CND,
    CWD,
    MND,
    MWD,
    DiSummary,
    MetricConsistencyError,
    apply_injection_weights,
    detect_injections,
)
from dimetrics.metrics import CouplingGraph, build_coupling_graph

from conftest import check_dog_pen, make_class, make_method, make_project, named_tests


# the dog-pen project's injected counts that each test checks
DOG_PEN_CASES = {
    "test_fully_injected_project_yields_cnd_findings": [(10,)],
    "test_no_class_typed_parameters_means_no_injection": [(0,)],
    "test_di_proportion_of_half_injected_project": [(5,)],
    "test_di_proportion_zero_without_injection": [(0,)],
    "test_dcbo_subtracts_injected_pairs": [(10,)],
    "test_dcbo_equals_cbo_without_injection": [(0,)],
    "test_dcbo_mean_for_partial_injection": [(3,)],
    "test_converting_one_pen_shifts_mean_dcbo_by_one_eleventh": [(k,) for k in range(11)],
    "test_generated_proportions_are_exact": [(k,) for k in range(11)],
}
globals().update(named_tests(check_dog_pen, DOG_PEN_CASES))


# (classes, each finding as (client, dependency, pattern), each class's DIP)
PATTERN_CASES = {
    "test_parameter_with_default_construction_is_cwd": [(
        [make_class("Pen", fields=(("dog", "Dog"),), methods=(
            make_method("Pen", is_constructor=True, params=("Dog",), accesses=("dog",)),
            make_method("reset", instantiates=("Dog",), accesses=("dog",)),
        )), make_class("Dog")],
        [("Pen", "Dog", CWD)], {"Pen": 0, "Dog": 0},
    )],
    "test_method_only_injection_is_mnd_and_with_default_mwd": [(
        [make_class("Feeder", methods=(make_method("feed", params=("Dog",)),)),
         make_class("Mixed",
                    methods=(make_method("feed", params=("Dog",), instantiates=("Dog",)),)),
         make_class("Dog")],
        [("Feeder", "Dog", MND), ("Mixed", "Dog", MWD)], {"Dog": 0, "Feeder": 1, "Mixed": 0},
    )],
    # one distinct dependency, two sites
    "test_constructor_param_wins_over_method_param": [(
        [make_class("Both", methods=(make_method("Both", is_constructor=True, params=("Dog",)),
                                     make_method("swap", params=("Dog",)))),
         make_class("Dog")],
        [("Both", "Dog", CND)], {"Both": 1, "Dog": 0},
    )],
    "test_self_type_parameters_are_ignored": [
        ([make_class("C", methods=(make_method("merge", params=("C",)),))], [], {"C": 0}),
    ],
}


def _check_patterns(classes, findings, dips):
    project = make_project(*classes)
    summary = detect_injections(project, build_coupling_graph(project))
    assert sorted(summary.findings) == findings
    assert summary.dip_per_class == dips


globals().update(named_tests(_check_patterns, PATTERN_CASES))


def test_di_proportion_saturates_at_one():
    # A injected into both B and C: DIP sum 2, CBO sum 4 -> 2*2/4 = 1.0
    a = make_class("A")
    b = make_class("B", methods=(make_method("B", is_constructor=True, params=("A",)),))
    c = make_class("C", methods=(make_method("C", is_constructor=True, params=("A",)),))
    metrics = analyze_project_model(make_project(a, b, c), "project").metrics
    assert sum(cm.cbo for cm in metrics.class_metrics) == 4
    assert metrics.di_proportion == 1.0


def test_empty_project_proportion_is_zero():
    analysis = analyze_project_model(make_project(), "project")
    assert analysis.metrics.di_proportion == 0.0
    assert apply_injection_weights(analysis.graph, analysis.injections) == 0.0


def test_dcbo_rejects_dip_above_cbo():
    graph = CouplingGraph(
        edge_count=1,
        degrees={"X": 1, "Y": 1},
        references={"X": {"Y"}, "Y": set()},
    )
    summary = DiSummary(findings=(), dip_per_class={"X": 2, "Y": 0})
    with pytest.raises(MetricConsistencyError):
        apply_injection_weights(graph, summary)
