"""Acceptance gates.

Each test is one exit criterion and prints a PASS line when it holds:

1. golden metric table of the generated suite (CSV, via the CLI), < 5 s
2. normalized score tables within +/-0.01 per cell
3. Friedman + Holm rejects the DMAI comparison at the 0.5 split
4. randomized property battery over 200 projects, < 30 s: CBO, findings,
   DIP, DCBO, RFC, LCOM, DI and the scores against their oracles, the round
   trip through the printer and the front end, and the injection-conversion
   shift (``check_random_project``; a Hypothesis test runs it on 100 more).
   No other test draws a random project: each section reads the one
   ``ProjectAnalysis`` of the project and the brute-force references.
5. chi-square upper tail vs a 50-point high-precision oracle at 1e-10
6. byte-identical outputs: analyze and chart in this interpreter write what
   the reproduce script writes in fresh ones under PYTHONHASHSEED 0 and 1
"""
from __future__ import annotations

import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimetrics.analysis import analyze_directory, analyze_project_model
from dimetrics.cli import main
from dimetrics.di import CND, MND
from dimetrics.frontend import MethodModel
from dimetrics.report import parse_report_csv
from dimetrics.stats import chi_square_upper_tail, friedman_test, split_by_threshold

from conftest import (
    make_method,
    make_project,
    pairwise_lcom1,
    parse_text,
    print_class,
    random_project,
)

# Golden per-suite values: suite index k (injected pens) -> report row.
# columns: di, cbo, dcbo, lcom, rfc, loc
GOLDEN_SUITE = {
    0: (0.0, 1.82, 1.82, 0.0, 2.91, 108),
    1: (0.1, 1.82, 1.73, 0.0, 2.82, 106),
    2: (0.2, 1.82, 1.64, 0.0, 2.73, 104),
    3: (0.3, 1.82, 1.55, 0.0, 2.64, 102),
    4: (0.4, 1.82, 1.45, 0.0, 2.55, 100),
    5: (0.5, 1.82, 1.36, 0.0, 2.45, 98),
    6: (0.6, 1.82, 1.27, 0.0, 2.36, 96),
    7: (0.7, 1.82, 1.18, 0.0, 2.27, 94),
    8: (0.8, 1.82, 1.09, 0.0, 2.18, 92),
    9: (0.9, 1.82, 1.00, 0.0, 2.09, 90),
    10: (1.0, 1.82, 0.91, 0.0, 2.00, 88),
}

# columns: ncbo, nrfc, nlcom, mai
GOLDEN_UNWEIGHTED = {
    0: (0.65, 0.74, 0.0, 0.54),
    1: (0.65, 0.74, 0.0, 0.54),
    2: (0.65, 0.73, 0.0, 0.54),
    3: (0.65, 0.73, 0.0, 0.54),
    4: (0.65, 0.72, 0.0, 0.55),
    5: (0.65, 0.71, 0.0, 0.55),
    6: (0.65, 0.70, 0.0, 0.55),
    7: (0.65, 0.69, 0.0, 0.55),
    8: (0.65, 0.69, 0.0, 0.56),
    9: (0.65, 0.68, 0.0, 0.56),
    10: (0.65, 0.67, 0.0, 0.56),
}

# columns: ndcbo, nrfc, nlcom, dmai
GOLDEN_WEIGHTED = {
    0: (0.64, 0.74, 0.0, 0.54),
    1: (0.63, 0.73, 0.0, 0.54),
    2: (0.62, 0.73, 0.0, 0.55),
    3: (0.60, 0.72, 0.0, 0.56),
    4: (0.59, 0.71, 0.0, 0.56),
    5: (0.57, 0.71, 0.0, 0.57),
    6: (0.56, 0.70, 0.0, 0.58),
    7: (0.54, 0.69, 0.0, 0.59),
    8: (0.52, 0.68, 0.0, 0.60),
    9: (0.50, 0.67, 0.0, 0.61),
    10: (0.47, 0.66, 0.0, 0.62),
}


def _passed(criterion: int, description: str) -> None:
    print(f"ACCEPTANCE C{criterion}: PASS - {description}")


@pytest.fixture(scope="module")
def suite_analyses(paper_suite):
    analyses = []
    for project_dir in paper_suite[0]:
        analysis, diagnostics = analyze_directory(project_dir)
        assert analysis is not None, diagnostics
        analyses.append(analysis)
    return analyses


def test_criterion_1_suite_golden_metrics(tmp_path):
    started = time.perf_counter()
    root = tmp_path / "projects"
    assert main(["generate", str(root), "--step", "10"]) == 0
    report = tmp_path / "report.csv"
    dirs = sorted(str(p) for p in root.iterdir())
    assert main(["analyze", *dirs, "--out", str(report)]) == 0
    elapsed = time.perf_counter() - started

    rows = {row.project: row for row in parse_report_csv(report.read_text())}
    assert len(rows) == 11
    for k, (di, cbo, dcbo, lcom, rfc, loc) in GOLDEN_SUITE.items():
        row = rows[f"di_{10 * k}"]
        assert row.di == k / 10, f"di_{10 * k}: DI {row.di} != {k / 10}"
        assert abs(row.cbo - cbo) <= 0.005
        assert abs(row.dcbo - dcbo) <= 0.005
        assert abs(row.lcom - lcom) <= 0.005
        assert abs(row.rfc - rfc) <= 0.005
        assert row.loc == loc == 108 - 2 * k
    assert elapsed < 5.0, f"generate+analyze took {elapsed:.2f}s"
    _passed(1, f"suite metric table reproduced in {elapsed:.2f}s")


def test_criterion_2_normalized_score_tables(suite_analyses):
    for k, analysis in enumerate(suite_analyses):
        scores = analysis.scores
        ncbo, nrfc, nlcom, mai = GOLDEN_UNWEIGHTED[k]
        assert abs(scores.ncbo - ncbo) <= 0.01, f"di_{10 * k} ncbo"
        assert abs(scores.nrfc - nrfc) <= 0.01, f"di_{10 * k} nrfc"
        assert abs(scores.nlcom - nlcom) <= 0.01, f"di_{10 * k} nlcom"
        assert abs(scores.mai - mai) <= 0.01, f"di_{10 * k} mai"
        ndcbo, nrfc_w, nlcom_w, dmai = GOLDEN_WEIGHTED[k]
        assert abs(scores.ndcbo - ndcbo) <= 0.01, f"di_{10 * k} ndcbo"
        assert abs(scores.nrfc - nrfc_w) <= 0.01, f"di_{10 * k} nrfc (weighted table)"
        assert abs(scores.nlcom - nlcom_w) <= 0.01
        assert abs(scores.dmai - dmai) <= 0.01, f"di_{10 * k} dmai"
    _passed(2, "normalized score tables match within 0.01 per cell")


def test_criterion_3_friedman_rejects_dmai_split(suite_analyses):
    pairs = [(a.metrics.di_proportion, a.scores.dmai) for a in suite_analyses]
    matrix = split_by_threshold(pairs, threshold=0.5, boundary="exclude")
    assert len(matrix.blocks) == 5
    result = friedman_test(matrix, alpha=0.05)
    assert result.chi_square == pytest.approx(5.0, abs=1e-9)
    assert result.df == 1
    assert result.p_value == pytest.approx(math.erfc(math.sqrt(5 / 2)), abs=1e-12)
    assert result.p_value == pytest.approx(0.0253, abs=5e-4)
    assert result.p_value < 0.05
    assert result.pairwise[0].rejected
    _passed(
        3,
        f"DMAI split rejected (chi2={result.chi_square:.1f}, p={result.p_value:.4f})",
    )


# --- criterion 4: the randomized property battery ---------------------------


def _oracle_references(project) -> dict[str, set[str]]:
    """Brute force: each class's declared type references to the other
    project classes, one scan over every place a type can be named."""
    names = {c.name for c in project}

    def referenced(model) -> set[str]:
        out = set()
        for fld in model.fields:  # a declared type's element type: no name ends in [ or ]
            out.add(fld.type_name.rstrip("[]"))
        out.update(model.super_types)
        for m in model.methods:
            for p in m.param_types:
                out.add(p.rstrip("[]"))
            if m.return_type is not None:
                out.add(m.return_type.rstrip("[]"))
            out.update(m.instantiated_types)
            out.update(rt for rt, _ in m.invoked_methods)
        return {t for t in out if t in names and t != model.name}

    return {c.name: referenced(c) for c in project}


def _rfc_over_project_names(model, project):
    """RFC with remote calls filtered by the project's class names and self."""
    names = {c.name for c in project}
    remote = set()
    for method in model.methods:
        calls = list(method.invoked_methods)
        calls += [(created, "<init>") for created in method.instantiated_types]
        remote.update(call for call in calls if call[0] in names and call[0] != model.name)
    return len(model.methods) + len(remote)


def _with_forced_construction(project, client: str, dep: str):
    classes = []
    for model in project:
        if model.name != client:
            classes.append(model)
            continue
        if model.methods:
            first = model.methods[0]
            patched = first._replace(instantiated_types=first.instantiated_types + (dep,))
            methods = (patched,) + model.methods[1:]
        else:
            methods = (make_method("init", instantiates=(dep,)),)
        classes.append(model._replace(methods=methods))
    return make_project(*classes)


def _with_constructor_injection(project, client: str, dep: str):
    classes = []
    for model in project:
        if model.name != client:
            classes.append(model)
            continue
        methods: list[MethodModel] = [
            m._replace(instantiated_types=tuple(t for t in m.instantiated_types if t != dep))
            for m in model.methods
        ]
        for index, m in enumerate(methods):
            if m.is_constructor:
                methods[index] = m._replace(param_types=m.param_types + (dep,))
                break
        else:
            methods.append(make_method(client, is_constructor=True, params=(dep,)))
        classes.append(model._replace(methods=tuple(methods)))
    return make_project(*classes)


def check_coupling(analysis, refs) -> None:
    """(a) CBO = graph degree = the brute-force pairwise count; the edge count is
    the brute-force count of coupled pairs, and the degrees sum to twice it."""
    graph, class_metrics = analysis.graph, analysis.metrics.class_metrics
    for cm in class_metrics:
        name = cm.class_name
        oracle = sum(1 for b in refs if b != name and (b in refs[name] or name in refs[b]))
        assert cm.cbo == graph.degree(name) == oracle
    pairs = {frozenset((name, ref)) for name in refs for ref in refs[name]}
    assert graph.edge_count == len(pairs)
    assert sum(cm.cbo for cm in class_metrics) == 2 * graph.edge_count


def check_findings(analysis, refs) -> None:
    """(b) Exactly one finding per referencing pair, so never a class with
    itself or with a library type."""
    pairs = sorted((f.client_class, f.dependency_class) for f in analysis.injections.findings)
    assert pairs == sorted((client, dep) for client in refs for dep in refs[client])


def check_injection_metrics(analysis) -> None:
    """(b) DIP counts the class's CND/MND findings, 0 <= DIP <= CBO and DCBO = CBO - DIP;
    (c) DI = min(1, sum(DIP) / edge count), and 0 without edges."""
    findings, metrics = analysis.injections.findings, analysis.metrics
    injected = Counter(f.client_class for f in findings if f.pattern in (CND, MND))
    for cm in metrics.class_metrics:
        assert cm.dip == injected[cm.class_name]
        assert 0 <= cm.dip <= cm.cbo
        assert cm.dcbo == cm.cbo - cm.dip <= cm.cbo
        assert (cm.dcbo == cm.cbo) == (cm.dip == 0)
    dip_total = sum(cm.dip for cm in metrics.class_metrics)
    edges = analysis.graph.edge_count
    assert metrics.di_proportion == (min(1.0, dip_total / edges) if edges else 0.0)


def check_rfc_and_lcom(project, analysis) -> None:
    """(b) RFC and LCOM equal their oracles."""
    for model, cm in zip(project, analysis.metrics.class_metrics):
        assert cm.rfc == _rfc_over_project_names(model, project)
        assert cm.lcom == pairwise_lcom1([m.accessed_fields for m in model.methods])


def check_scores(scores) -> None:
    """(d) 0 <= MAI <= DMAI <= 1, and DMAI - MAI is the CBO term's gap."""
    assert 0.0 <= scores.mai <= scores.dmai <= 1.0
    assert scores.dmai - scores.mai == pytest.approx((scores.ncbo - scores.ndcbo) / 3)


def check_printed_project(project, analysis) -> None:
    """(e) Printed with ``print_class``, parsed and resolved again: the same
    names, super types, fields and methods, the same metrics but LOC, and the
    same DI."""
    parsed = []
    for model in project:
        models, diagnostics = parse_text(print_class(model), f"{model.name}.java")
        assert diagnostics == [], (print_class(model), diagnostics)
        parsed.extend(models)
    parsed = make_project(*parsed)
    assert [model[:4] for model in parsed] == [model[:4] for model in project]
    reparsed = analyze_project_model(parsed, "printed").metrics
    without_loc = [cm._replace(loc=0) for cm in analysis.metrics.class_metrics]
    assert [cm._replace(loc=0) for cm in reparsed.class_metrics] == without_loc
    assert reparsed.di_proportion == analysis.metrics.di_proportion


def check_conversion(project, rng: random.Random) -> bool:
    """(f) Converting one default-constructed dependency to constructor
    injection keeps mean CBO and shifts mean DCBO down by 1/|classes|;
    returns whether it ran, which takes two classes."""
    names = [model.name for model in project]
    if len(names) < 2:
        return False
    client, dep = rng.sample(names, 2)
    defaulted = _with_forced_construction(project, client, dep)
    injected_project = _with_constructor_injection(defaulted, client, dep)
    before = analyze_project_model(defaulted, "project")
    after = analyze_project_model(injected_project, "project")
    assert after.metrics.mean_cbo == before.metrics.mean_cbo
    shift = before.metrics.mean_dcbo - after.metrics.mean_dcbo
    assert shift == pytest.approx(1 / len(names), rel=1e-12)
    return True


def check_random_project(project, rng: random.Random) -> bool:
    """Assert every property (a)-(f) of one random project against its
    oracle, and return whether (f) converted a dependency."""
    analysis = analyze_project_model(project, "project")
    assert [cm.class_name for cm in analysis.metrics.class_metrics] == [c.name for c in project]
    refs = _oracle_references(project)
    check_coupling(analysis, refs)
    check_findings(analysis, refs)
    check_injection_metrics(analysis)
    check_rfc_and_lcom(project, analysis)
    check_scores(analysis.scores)
    check_printed_project(project, analysis)
    return check_conversion(project, rng)


def test_criterion_4_randomized_property_battery():
    started = time.perf_counter()
    rng = random.Random(20260810)
    conversions = sum(check_random_project(random_project(rng), rng) for _ in range(200))
    elapsed = time.perf_counter() - started
    assert conversions >= 100  # the conversion property was actually exercised
    assert elapsed < 30.0, f"property battery took {elapsed:.2f}s"
    _passed(4, f"200-project property battery in {elapsed:.2f}s ({conversions} conversions)")


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_the_property_battery_holds_on_any_seeded_project(seed):
    rng = random.Random(seed)
    check_random_project(random_project(rng), rng)


def test_criterion_5_chi_square_kernel_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    xs = [0.0, 0.5, 1.0, 2.0, 3.841, 5.0, 8.0, 13.0, 21.0, 40.0]
    dfs = [1, 2, 3, 4, 5, 6]
    checked = 0
    worst = 0.0
    for df in dfs:
        for x in xs:
            ours = chi_square_upper_tail(x, df)
            oracle = float(
                mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                regularized=True)
            )
            worst = max(worst, abs(ours - oracle))
            assert abs(ours - oracle) < 1e-10, f"x={x}, df={df}"
            checked += 1
    assert checked >= 50
    _passed(5, f"chi-square tail within {worst:.2e} of oracle on {checked} grid points")


def test_chi_square_tail_at_large_df_and_large_x_against_oracle():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for df in range(1, 41):
            for x in (0.0, 1e-8, 0.5, 3.841, 40.0, 100.0, 300.0, 1000.0):
                oracle = float(
                    mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                    regularized=True)
                )
                assert abs(chi_square_upper_tail(x, df) - oracle) < 1e-12, f"x={x}, df={df}"


def test_criterion_6_byte_identical_outputs(paper_suite, reproduced, tmp_path):
    """An in-process analyze and chart write the same report and chart as the
    reproduce script under each of hash seeds 0 and 1."""
    report, chart = paper_suite[1], tmp_path / "trends.svg"
    assert main(["chart", str(report), str(chart)]) == 0
    for seed, (_, _, _, written) in reproduced.items():
        assert report.read_bytes() == written["out/report.csv"], seed
        assert chart.read_bytes() == written["out/trends.svg"], seed
    _passed(6, "report and chart byte-identical under hash seeds 0 and 1 and in-process")
