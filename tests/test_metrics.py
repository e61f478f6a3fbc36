"""Coupling graph and CK metric tests."""
from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimetrics.analysis import analyze_project_model
from dimetrics.metrics import (
    ClassMetrics,
    ProjectMetrics,
    build_coupling_graph,
    compute_lcom,
    compute_rfc,
)

from conftest import make_class, make_method, make_project, parse_text, random_project


def _dog_pen_project(injected: int = 0, pens: int = 10):
    """Dog plus N pens; injected pens take Dog as a constructor parameter,
    the rest construct their own."""
    classes = [
        make_class(
            "Dog",
            fields=(("name", "String"),),
            methods=(
                make_method("Dog", is_constructor=True, params=("String",), accesses=("name",)),
                make_method("getName", return_type="String", accesses=("name",)),
            ),
        )
    ]
    for i in range(1, pens + 1):
        if i <= injected:
            ctor = make_method(
                f"DogPen{i}", is_constructor=True, params=("Dog",), accesses=("dog",)
            )
        else:
            ctor = make_method(
                f"DogPen{i}", is_constructor=True, instantiates=("Dog",), accesses=("dog",)
            )
        classes.append(
            make_class(
                f"DogPen{i}",
                fields=(("dog", "Dog"),),
                methods=(ctor, make_method("getDog", return_type="Dog", accesses=("dog",))),
                line_count=8 if i <= injected else 10,
            )
        )
    return make_project(*classes)


def _rfc(model, project):
    return compute_rfc(model, build_coupling_graph(project).references[model.name])


def test_hub_project_degrees_and_mean():
    project = _dog_pen_project()
    graph = build_coupling_graph(project)
    assert graph.degree("Dog") == 10
    for i in range(1, 11):
        assert graph.degree(f"DogPen{i}") == 1
    metrics = analyze_project_model(project, "project").metrics
    assert metrics.mean_cbo == (2 * 10) / 11


def test_isolated_class_has_no_edges():
    project = make_project(
        make_class("Lonely", methods=(make_method("noop", return_type=None),))
    )
    graph = build_coupling_graph(project)
    assert graph.edge_count == 0
    assert graph.degree("Lonely") == 0
    with pytest.raises(KeyError):
        graph.degree("String")  # a library type is not a node


def test_chain_degrees():
    a = make_class("A", fields=(("b", "B"),))
    b = make_class("B", fields=(("c", "C"),))
    c = make_class("C")
    graph = build_coupling_graph(make_project(a, b, c))
    assert set(graph.edges) == {("A", "B"), ("B", "C")}
    assert (graph.degree("A"), graph.degree("B"), graph.degree("C")) == (1, 2, 1)


def test_library_types_do_not_couple():
    a = make_class(
        "A",
        fields=(("s", "String"),),
        methods=(make_method("go", params=("int", "Ext"), instantiates=("Ext",)),),
    )
    graph = build_coupling_graph(make_project(a))
    assert graph.edge_count == 0


@pytest.mark.parametrize(
    "a",
    [
        make_class("A", fields=(("b", "B"),)),
        make_class("A", fields=(("bs", "B[]"),)),
        make_class("A", supers=("B",)),
        make_class("A", methods=(make_method("go", params=("B",)),)),
        make_class("A", methods=(make_method("get", return_type="B"),)),
        make_class("A", methods=(make_method("make", instantiates=("B",)),)),
        make_class("A", methods=(make_method("run", invokes=(("B", "go"),)),)),
    ],
    ids=["field", "array-field", "supertype", "parameter", "return", "new", "call"],
)
def test_each_reference_source_couples_on_its_own(a):
    graph = build_coupling_graph(make_project(a, make_class("B")))
    assert graph.edge_count == 1
    assert graph.degree("A") == graph.degree("B") == 1
    assert graph.references["A"] == {"B"}


def test_coupling_is_symmetric_and_counted_once():
    a = make_class("A", fields=(("b", "B"),))
    b = make_class("B", fields=(("a", "A"),))
    graph = build_coupling_graph(make_project(a, b))
    assert graph.edge_count == 1
    assert graph.degree("A") == graph.degree("B") == 1


def test_rfc_counts_own_methods_and_distinct_remote_calls():
    dog = make_class(
        "Dog",
        fields=(("name", "String"),),
        methods=(
            make_method("Dog", is_constructor=True, params=("String",), accesses=("name",)),
            make_method("getName", return_type="String", accesses=("name",)),
        ),
    )
    pen = make_class(
        "DogPen",
        fields=(("dog", "Dog"),),
        methods=(
            make_method("DogPen", is_constructor=True, instantiates=("Dog",), accesses=("dog",)),
            make_method("getDog", return_type="Dog", accesses=("dog",)),
        ),
    )
    project = make_project(dog, pen)
    assert _rfc(pen, project) == 3  # 2 own + Dog constructor
    assert _rfc(dog, project) == 2  # no remote calls


def test_rfc_project_mean_for_hub_project():
    metrics = analyze_project_model(_dog_pen_project(injected=0), "project").metrics
    assert metrics.mean_rfc == (2 + 10 * 3) / 11


def test_rfc_of_methodless_class_is_zero():
    project = make_project(make_class("Empty"))
    assert _rfc(project.classes[0], project) == 0


def test_rfc_deduplicates_repeated_remote_calls():
    target = make_class("Target", methods=(make_method("hit"),))
    caller = make_class(
        "Caller",
        methods=(
            make_method("a", invokes=(("Target", "hit"),)),
            make_method("b", invokes=(("Target", "hit"),)),
        ),
    )
    project = make_project(target, caller)
    assert _rfc(caller, project) == 3  # 2 own + 1 distinct remote


def test_rfc_ignores_own_class_invocations_and_self_construction():
    c = make_class(
        "Self",
        methods=(
            make_method("a", invokes=(("Self", "b"),), instantiates=("Self",)),
            make_method("b"),
        ),
    )
    project = make_project(c)
    assert _rfc(c, project) == 2


def test_rfc_constructor_call_is_not_a_method_named_like_the_class():
    a, _ = parse_text("class A { void go(B b) { b.B(); B c = new B(); } }", "A.java")
    b, _ = parse_text("class B { public int B() { return 1; } }", "B.java")
    project = make_project(*a, *b)
    assert _rfc(a[0], project) == 3  # go + B.B() + B's constructor


def test_lcom_shared_field_pair_is_zero():
    pen = make_class(
        "Pen",
        fields=(("dog", "Dog"),),
        methods=(
            make_method("Pen", is_constructor=True, accesses=("dog",)),
            make_method("getDog", accesses=("dog",)),
        ),
    )
    assert compute_lcom(pen) == 0


def test_lcom_single_method_is_zero():
    assert compute_lcom(make_class("C", methods=(make_method("only"),))) == 0


def test_lcom_three_disjoint_methods():
    c = make_class(
        "C",
        fields=(("a", "int"), ("b", "int"), ("c", "int")),
        methods=(
            make_method("ma", accesses=("a",)),
            make_method("mb", accesses=("b",)),
            make_method("mc", accesses=("c",)),
        ),
    )
    # all 3 pairs disjoint: P=3, Q=0
    assert compute_lcom(c) == 3


def test_lcom_floors_at_zero():
    c = make_class(
        "C",
        fields=(("a", "int"),),
        methods=(
            make_method("m1", accesses=("a",)),
            make_method("m2", accesses=("a",)),
            make_method("m3", accesses=("a",)),
        ),
    )
    assert compute_lcom(c) == 0  # P=0, Q=3


def _pairwise_lcom1(access_sets):
    disjoint = sharing = 0
    for index, first in enumerate(access_sets):
        for second in access_sets[index + 1 :]:
            if first & second:
                sharing += 1
            else:
                disjoint += 1
    return max(disjoint - sharing, 0)


@given(st.lists(st.frozensets(st.sampled_from("abcd"), max_size=3), max_size=30))
def test_grouped_lcom_matches_pairwise_count(access_sets):
    """Empty, repeated and overlapping access sets all group correctly."""
    c = make_class(
        "C",
        fields=tuple((name, "int") for name in "abcd"),
        methods=tuple(
            make_method(f"m{i}", accesses=tuple(sorted(fields)))
            for i, fields in enumerate(access_sets)
        ),
    )
    assert compute_lcom(c) == _pairwise_lcom1(access_sets)


def test_two_class_mutual_project_mean():
    a = make_class("A", fields=(("b", "B"),), methods=(make_method("ma"),))
    b = make_class("B", fields=(("a", "A"),), methods=(make_method("mb"),))
    project = make_project(a, b)
    metrics = analyze_project_model(project, "project").metrics
    assert metrics.mean_cbo == 1.0


def test_empty_project_means_are_zero():
    project = make_project()
    metrics = analyze_project_model(project, "project").metrics
    assert metrics.mean_cbo == metrics.mean_rfc == metrics.mean_lcom == 0.0
    assert metrics.total_loc == 0


def test_metrics_are_order_independent():
    a = make_class("A", fields=(("b", "B"),), methods=(make_method("ma"),))
    b = make_class("B", methods=(make_method("mb", invokes=(("A", "go"),)),))
    forward = make_project(a, b)
    backward = make_project(b, a)
    mf = analyze_project_model(forward, "project").metrics
    mb = analyze_project_model(backward, "project").metrics
    assert mf.class_metrics == mb.class_metrics


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_degree_sum_equals_twice_edge_count(seed):
    project = random_project(random.Random(seed))
    graph = build_coupling_graph(project)
    assert sum(graph.degree(c.name) for c in project.classes) == 2 * graph.edge_count


def test_cbo_is_invariant_under_injection_style():
    plain = _dog_pen_project(injected=0)
    injected = _dog_pen_project(injected=10)
    g_plain = build_coupling_graph(plain)
    g_injected = build_coupling_graph(injected)
    assert set(g_plain.edges) == set(g_injected.edges)


def _rfc_over_project_names(model, project):
    """RFC with remote calls filtered by the project's class names and self."""
    remote = set()
    for method in model.methods:
        calls = list(method.invoked_methods)
        calls += [(created, "<init>") for created in method.instantiated_types]
        remote.update(
            (receiver, name)
            for receiver, name in calls
            if receiver in project.class_names and receiver != model.name
        )
    return len(model.methods) + len(remote)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rfc_counts_calls_into_project_classes_other_than_self(seed):
    project = random_project(random.Random(seed))
    models = {model.name: model for model in project.classes}
    for cm in analyze_project_model(project, "project").metrics.class_metrics:
        assert cm.rfc == _rfc_over_project_names(models[cm.class_name], project)


@pytest.mark.parametrize("record", [ClassMetrics, ProjectMetrics])
def test_metric_records_have_no_field_defaults(record):
    for field in dataclasses.fields(record):
        assert field.default is dataclasses.MISSING, field.name
        assert field.default_factory is dataclasses.MISSING, field.name
