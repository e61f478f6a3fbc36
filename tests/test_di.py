"""Injection detection, DIP, DI proportion, and DCBO tests."""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimetrics.analysis import analyze_project_model
from dimetrics.di import (
    CND,
    CWD,
    HARD,
    MND,
    MWD,
    DiSummary,
    MetricConsistencyError,
    apply_injection_weights,
    detect_injections,
)
from dimetrics.metrics import CouplingGraph, build_coupling_graph

from conftest import make_class, make_method, make_project, random_project
from test_metrics import _dog_pen_project


def _detect(project):
    return detect_injections(project, build_coupling_graph(project))


def _analyze(project):
    return analyze_project_model(project, "project").metrics, _detect(project)


def test_fully_injected_project_yields_cnd_findings():
    project = _dog_pen_project(injected=10)
    summary = _detect(project)
    cnd = [f for f in summary.findings if f.pattern == CND]
    assert len(cnd) == 10
    assert all(f.dependency_class == "Dog" for f in cnd)
    assert sum(summary.dip_per_class.values()) == 10


def test_no_class_typed_parameters_means_no_injection():
    project = _dog_pen_project(injected=0)
    summary = _detect(project)
    assert sum(summary.dip_per_class.values()) == 0
    assert not [f for f in summary.findings if f.pattern in (CND, MND)]
    # the default pens never take Dog as a parameter, so the pair is hard
    assert {f.pattern for f in summary.findings if f.client_class.startswith("DogPen")} == {HARD}


def test_parameter_with_default_construction_is_cwd():
    pen = make_class(
        "Pen",
        fields=(("dog", "Dog"),),
        methods=(
            make_method("Pen", is_constructor=True, params=("Dog",), accesses=("dog",)),
            make_method("reset", instantiates=("Dog",), accesses=("dog",)),
        ),
    )
    project = make_project(pen, make_class("Dog"))
    summary = _detect(project)
    findings = [f for f in summary.findings if f.client_class == "Pen"]
    assert len(findings) == 1
    assert findings[0].pattern == CWD
    assert summary.dip_per_class["Pen"] == 0


def test_method_only_injection_is_mnd_and_with_default_mwd():
    feeder = make_class("Feeder", methods=(make_method("feed", params=("Dog",)),))
    mixed = make_class(
        "Mixed",
        methods=(make_method("feed", params=("Dog",), instantiates=("Dog",)),),
    )
    project = make_project(feeder, mixed, make_class("Dog"))
    summary = _detect(project)
    patterns = {f.client_class: f.pattern for f in summary.findings}
    assert patterns["Feeder"] == MND
    assert patterns["Mixed"] == MWD
    assert summary.dip_per_class == {"Dog": 0, "Feeder": 1, "Mixed": 0}


def test_constructor_param_wins_over_method_param():
    both = make_class(
        "Both",
        methods=(
            make_method("Both", is_constructor=True, params=("Dog",)),
            make_method("swap", params=("Dog",)),
        ),
    )
    project = make_project(both, make_class("Dog"))
    summary = _detect(project)
    assert summary.findings[0].pattern == CND
    assert summary.dip_per_class["Both"] == 1  # one distinct dependency, two sites


def test_self_type_parameters_are_ignored():
    c = make_class("C", methods=(make_method("merge", params=("C",)),))
    summary = _detect(make_project(c))
    assert summary.findings == ()
    assert summary.dip_per_class == {"C": 0}


def test_exactly_one_finding_per_referencing_pair():
    rng = random.Random(7)
    for _ in range(50):
        project = random_project(rng)
        summary = _detect(project)
        pairs = [(f.client_class, f.dependency_class) for f in summary.findings]
        assert len(pairs) == len(set(pairs))
        for finding in summary.findings:
            assert finding.client_class != finding.dependency_class
            assert finding.dependency_class in project.class_names


def test_di_proportion_of_half_injected_project():
    metrics, summary = _analyze(_dog_pen_project(injected=5))
    assert sum(summary.dip_per_class.values()) == 5
    assert sum(cm.cbo for cm in metrics.class_metrics) == 20
    assert metrics.di_proportion == 0.5


def test_di_proportion_zero_without_injection():
    metrics, _ = _analyze(_dog_pen_project(injected=0))
    assert metrics.di_proportion == 0.0


def test_di_proportion_saturates_at_one():
    # A injected into both B and C: DIP sum 2, CBO sum 4 -> 2*2/4 = 1.0
    a = make_class("A")
    b = make_class("B", methods=(make_method("B", is_constructor=True, params=("A",)),))
    c = make_class("C", methods=(make_method("C", is_constructor=True, params=("A",)),))
    metrics, _ = _analyze(make_project(a, b, c))
    assert sum(cm.cbo for cm in metrics.class_metrics) == 4
    assert metrics.di_proportion == 1.0


def test_empty_project_proportion_is_zero():
    project = make_project()
    metrics, summary = _analyze(project)
    assert metrics.di_proportion == 0.0
    assert apply_injection_weights(build_coupling_graph(project), summary) == 0.0


def test_dcbo_subtracts_injected_pairs():
    metrics, _ = _analyze(_dog_pen_project(injected=10))
    by_name = {cm.class_name: cm for cm in metrics.class_metrics}
    assert by_name["DogPen1"].dcbo == 0.0
    assert by_name["Dog"].dcbo == 10.0
    assert metrics.mean_dcbo == pytest.approx(10 / 11)


def test_dcbo_equals_cbo_without_injection():
    metrics, _ = _analyze(_dog_pen_project(injected=0))
    for cm in metrics.class_metrics:
        assert cm.dcbo == cm.cbo
    assert metrics.mean_dcbo == metrics.mean_cbo


def test_dcbo_mean_for_partial_injection():
    metrics, _ = _analyze(_dog_pen_project(injected=3))
    assert metrics.mean_dcbo == pytest.approx((20 - 3) / 11)


def test_dcbo_rejects_dip_above_cbo():
    graph = CouplingGraph(
        edges=frozenset({("X", "Y")}),
        degrees={"X": 1, "Y": 1},
        references={"X": {"Y"}, "Y": set()},
    )
    summary = DiSummary(findings=(), dip_per_class={"X": 2, "Y": 0})
    with pytest.raises(MetricConsistencyError):
        apply_injection_weights(graph, summary)


def test_dcbo_never_exceeds_cbo_on_random_projects():
    rng = random.Random(13)
    for _ in range(50):
        metrics, _ = _analyze(random_project(rng))
        for cm in metrics.class_metrics:
            assert cm.dcbo <= cm.cbo
            assert (cm.dcbo == cm.cbo) == (cm.dip == 0)
        assert 0.0 <= metrics.di_proportion <= 1.0


@given(st.integers(min_value=0, max_value=9))
def test_converting_one_pen_shifts_mean_dcbo_by_one_eleventh(k):
    before, _ = _analyze(_dog_pen_project(injected=k))
    after, _ = _analyze(_dog_pen_project(injected=k + 1))
    assert after.mean_cbo == before.mean_cbo
    assert before.mean_dcbo - after.mean_dcbo == pytest.approx(1 / 11)


def test_generated_proportions_are_exact():
    for k in range(11):
        metrics, _ = _analyze(_dog_pen_project(injected=k))
        assert metrics.di_proportion == k / 10


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_metrics_take_dip_and_di_from_the_injection_analysis(seed):
    project = random_project(random.Random(seed))
    graph = build_coupling_graph(project)
    summary = detect_injections(project, graph)
    metrics = analyze_project_model(project, "project").metrics
    injected = Counter(f.client_class for f in summary.findings if f.pattern in (CND, MND))
    for cm in metrics.class_metrics:
        assert cm.dip == injected[cm.class_name]
        assert cm.dcbo == cm.cbo - cm.dip
    dip_total = sum(cm.dip for cm in metrics.class_metrics)
    expected = min(1.0, dip_total / graph.edge_count) if graph.edge_count else 0.0
    assert metrics.di_proportion == expected
