"""Coupling graph and CK metric tests."""
from __future__ import annotations

import importlib
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dimetrics
from dimetrics import analysis, di, frontend, maintainability, report, stats
from dimetrics.analysis import analyze_project_model
from dimetrics.metrics import (
    ClassMetrics,
    CouplingGraph,
    ProjectMetrics,
    build_coupling_graph,
    compute_lcom,
    compute_rfc,
)

from conftest import (
    RANK_MATRIX_ERRORS,
    check_dog_pen,
    dog_pen_project,
    make_class,
    make_method,
    make_project,
    named_tests,
    pairwise_lcom1,
    parse_text,
)


def _rfc(model, project):
    return compute_rfc(model, build_coupling_graph(project).references[model.name])


# the dog-pen project's injected counts that each test checks
DOG_PEN_CASES = {
    "test_hub_project_degrees_and_mean": [(0,)],
    "test_rfc_project_mean_for_hub_project": [(0,)],
    "test_cbo_is_invariant_under_injection_style": [(0,), (10,)],
}
globals().update(named_tests(check_dog_pen, DOG_PEN_CASES))


# (classes, each class's references and degree, the edge count); every row
# also checks that a library type is not a node
GRAPH_CASES = {
    "test_isolated_class_has_no_edges": [
        ([make_class("Lonely", methods=(make_method("noop", return_type=None),))],
         {"Lonely": (set(), 0)}, 0),
    ],
    "test_chain_degrees": [(
        [make_class("A", fields=(("b", "B"),)), make_class("B", fields=(("c", "C"),)),
         make_class("C")],
        {"A": ({"B"}, 1), "B": ({"C"}, 2), "C": (set(), 1)}, 2,
    )],
    "test_library_types_do_not_couple": [(
        [make_class("A", fields=(("s", "String"),),
                    methods=(make_method("go", params=("int", "Ext"), instantiates=("Ext",)),))],
        {"A": (set(), 0)}, 0,
    )],
    "test_coupling_is_symmetric_and_counted_once": [(
        [make_class("A", fields=(("b", "B"),)), make_class("B", fields=(("a", "A"),))],
        {"A": ({"B"}, 1), "B": ({"A"}, 1)}, 1,
    )],
}


def _check_graph(classes, nodes, edges):
    graph = build_coupling_graph(make_project(*classes))
    assert graph.references == {name: references for name, (references, _) in nodes.items()}
    assert {name: graph.degree(name) for name in nodes} == {n: d for n, (_, d) in nodes.items()}
    assert graph.edge_count == edges
    with pytest.raises(KeyError):
        graph.degree("String")


globals().update(named_tests(_check_graph, GRAPH_CASES))


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


# (classes, the RFC of some of them)
RFC_CASES = {
    # a pen's 2 own methods and Dog's constructor; Dog makes no remote calls
    "test_rfc_counts_own_methods_and_distinct_remote_calls": [
        (dog_pen_project(pens=1), {"Dog": 2, "DogPen1": 3}),
    ],
    "test_rfc_of_methodless_class_is_zero": [([make_class("Empty")], {"Empty": 0})],
    "test_rfc_deduplicates_repeated_remote_calls": [(
        [make_class("Target", methods=(make_method("hit"),)),
         make_class("Caller", methods=(make_method("a", invokes=(("Target", "hit"),)),
                                       make_method("b", invokes=(("Target", "hit"),))))],
        {"Target": 1, "Caller": 3},  # 2 own + 1 distinct remote
    )],
    "test_rfc_ignores_own_class_invocations_and_self_construction": [(
        [make_class("Self", methods=(
            make_method("a", invokes=(("Self", "b"),), instantiates=("Self",)), make_method("b"),
        ))],
        {"Self": 2},
    )],
}


def _check_rfc(classes, rfcs):
    project = make_project(*classes)
    assert {model.name: _rfc(model, project) for model in project if model.name in rfcs} == rfcs


globals().update(named_tests(_check_rfc, RFC_CASES))


def test_rfc_constructor_call_is_not_a_method_named_like_the_class():
    a, _ = parse_text("class A { void go(B b) { b.B(); B c = new B(); } }", "A.java")
    b, _ = parse_text("class B { public int B() { return 1; } }", "B.java")
    project = make_project(*a, *b)
    assert _rfc(a[0], project) == 3  # go + B.B() + B's constructor


# (each method's accessed fields, LCOM), also checked against the pairwise count
LCOM_CASES = {
    "test_lcom_shared_field_pair_is_zero": [([{"dog"}, {"dog"}], 0)],
    "test_lcom_single_method_is_zero": [([set()], 0)],
    "test_lcom_three_disjoint_methods": [([{"a"}, {"b"}, {"c"}], 3)],  # P=3, Q=0
    "test_lcom_floors_at_zero": [([{"a"}, {"a"}, {"a"}], 0)],  # P=0, Q=3
}


def _check_lcom(access_sets, lcom):
    fields = tuple((name, "int") for name in sorted(set().union(*access_sets)))
    methods = tuple(make_method(f"m{i}", accesses=tuple(f)) for i, f in enumerate(access_sets))
    assert compute_lcom(make_class("C", fields=fields, methods=methods)) == lcom
    assert pairwise_lcom1(access_sets) == lcom


globals().update(named_tests(_check_lcom, LCOM_CASES))


def test_lcom_counts_a_field_used_only_as_a_receiver():
    """Three methods that each use the one field, two of them only through
    it (``b.g()``, ``b.n``), share it pairwise: LCOM 0, not 3."""
    models, diagnostics = parse_text(
        "class A { private B b; public void f() { b.g(); }"
        " public int h() { int v = b.n; return v; } public void k() { B x = b; } }"
        " class B { public int n; public void g() { } }"
    )
    assert diagnostics == []
    metrics = analyze_project_model(make_project(*models), "project").metrics
    assert [(cm.class_name, cm.lcom) for cm in metrics.class_metrics] == [("A", 0), ("B", 0)]


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
    assert compute_lcom(c) == pairwise_lcom1(access_sets)


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


RECORDS = [
    ClassMetrics,
    ProjectMetrics,
    CouplingGraph,
    frontend.Diagnostic,
    frontend.SourceFile,
    frontend.FieldDecl,
    frontend.MethodModel,
    frontend.ClassModel,
    di.InjectionFinding,
    di.DiSummary,
    analysis.ProjectAnalysis,
    maintainability.MaintainabilityScores,
    report.ReportRow,
    stats.RankMatrix,
    stats.PairwiseComparison,
    stats.FriedmanResult,
]


@pytest.mark.parametrize("record", RECORDS)
def test_metric_records_have_no_field_defaults(record):
    assert record._field_defaults == {}
    # built past RankMatrix's checks: only the type's own attributes are under test
    instance = tuple.__new__(record, range(len(record._fields)))
    assert not hasattr(instance, "__dict__")
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
    with pytest.raises(AttributeError):
        instance.extra = None


def test_every_class_in_the_package_is_a_record_an_error_or_known():
    """A new record type is a namedtuple, and so is listed in RECORDS."""
    found = set()
    for info in pkgutil.iter_modules(dimetrics.__path__):
        module = importlib.import_module(f"dimetrics.{info.name}")
        found.update(
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        )
    records = {cls for cls in found if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    others = {cls.__name__ for cls in found - records if not issubclass(cls, Exception)}
    assert records - {frontend._RawClass} == set(RECORDS)
    assert others == {"TokenStream"}


def test_report_row_fields_are_the_csv_header():
    header = "project,di,cbo,dcbo,lcom,rfc,loc,ncbo,ndcbo,nlcom,nrfc,mai,dmai"
    assert ",".join(report.ReportRow._fields) == header
    assert report.rows_to_csv([]) == header + "\n"


def test_rank_matrix_checks_every_construction():
    """``_replace`` checks a rank matrix as its constructor does."""
    matrix = stats.RankMatrix(("a", "b"), ((1.0, 2.0), (2.0, 1.0)), (2, 2))
    for treatments, blocks, message in RANK_MATRIX_ERRORS:
        with pytest.raises(ValueError, match=message):
            matrix._replace(treatments=treatments, blocks=blocks)
