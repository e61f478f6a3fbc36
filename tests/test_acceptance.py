"""Acceptance gates.

Each test is one exit criterion and prints a PASS line when it holds:

1. golden metric table of the generated suite (CSV, via the CLI), < 5 s
2. normalized score tables within +/-0.01 per cell
3. Friedman + Holm rejects the DMAI comparison at the 0.5 split
4. randomized property battery over 200 projects (brute-force CBO oracle,
   bounds, and the injection-conversion shift), < 30 s
5. chi-square upper tail vs a 50-point high-precision oracle at 1e-10
6. byte-identical CSV and SVG across repeated runs
"""
from __future__ import annotations

import dataclasses
import math
import random
import time

import pytest

from dimetrics.analysis import analyze_directory, analyze_project_model
from dimetrics.cli import main
from dimetrics.frontend import MethodModel, base_type_name, resolve_project
from dimetrics.metrics import build_coupling_graph
from dimetrics.report import parse_report_csv
from dimetrics.stats import chi_square_upper_tail, friedman_test, split_by_threshold

from conftest import make_method, random_project

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
def suite_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_suite") / "projects"
    assert main(["generate", str(root), "--step", "10"]) == 0
    return sorted(root.iterdir(), key=lambda p: int(p.name.split("_")[1]))


@pytest.fixture(scope="module")
def suite_analyses(suite_dirs):
    analyses = []
    for project_dir in suite_dirs:
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
    assert matrix.n_blocks == 5
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


# --- criterion 4 helpers ----------------------------------------------------


def _oracle_degrees(project) -> dict[str, int]:
    """Brute-force pairwise scan over every declared type reference."""
    names = {c.name for c in project.classes}

    def referenced(model) -> set[str]:
        out = set()
        for fld in model.fields:
            out.add(base_type_name(fld.type_name))
        out.update(model.super_types)
        for m in model.methods:
            for p in m.param_types:
                out.add(base_type_name(p))
            if m.return_type is not None:
                out.add(base_type_name(m.return_type))
            out.update(m.instantiated_types)
            out.update(rt for rt, _ in m.invoked_methods)
        return {t for t in out if t in names and t != model.name}

    refs = {c.name: referenced(c) for c in project.classes}
    return {
        a: sum(1 for b in names if b != a and (b in refs[a] or a in refs[b]))
        for a in names
    }


def _with_forced_construction(project, client: str, dep: str):
    classes = []
    for model in project.classes:
        if model.name != client:
            classes.append(model)
            continue
        if model.methods:
            first = model.methods[0]
            patched = dataclasses.replace(
                first, instantiated_types=first.instantiated_types + (dep,)
            )
            methods = (patched,) + model.methods[1:]
        else:
            methods = (make_method("init", instantiates=(dep,)),)
        classes.append(dataclasses.replace(model, methods=methods))
    rebuilt, diagnostics = resolve_project(classes)
    assert rebuilt is not None, diagnostics
    return rebuilt


def _with_constructor_injection(project, client: str, dep: str):
    classes = []
    for model in project.classes:
        if model.name != client:
            classes.append(model)
            continue
        methods: list[MethodModel] = [
            dataclasses.replace(
                m,
                instantiated_types=tuple(t for t in m.instantiated_types if t != dep),
            )
            for m in model.methods
        ]
        for index, m in enumerate(methods):
            if m.is_constructor:
                methods[index] = dataclasses.replace(m, param_types=m.param_types + (dep,))
                break
        else:
            methods.append(make_method(client, is_constructor=True, params=(dep,)))
        classes.append(dataclasses.replace(model, methods=tuple(methods)))
    rebuilt, diagnostics = resolve_project(classes)
    assert rebuilt is not None, diagnostics
    return rebuilt


def test_criterion_4_randomized_property_battery():
    started = time.perf_counter()
    rng = random.Random(20260810)
    conversions = 0
    for _ in range(200):
        project = random_project(rng)
        analysis = analyze_project_model(project, "project")
        graph = build_coupling_graph(project)

        # (a) CBO against the brute-force oracle
        oracle = _oracle_degrees(project)
        for cm in analysis.metrics.class_metrics:
            assert cm.cbo == graph.degree(cm.class_name) == oracle[cm.class_name]

        # (b) DCBO <= CBO with equality iff DIP == 0
        for cm in analysis.metrics.class_metrics:
            assert cm.dcbo <= cm.cbo
            assert (cm.dcbo == cm.cbo) == (cm.dip == 0)

        # (c) DI proportion in [0, 1]
        assert 0.0 <= analysis.metrics.di_proportion <= 1.0

        # (d) index bounds and dominance
        assert 0.0 <= analysis.scores.mai <= 1.0
        assert 0.0 <= analysis.scores.dmai <= 1.0
        assert analysis.scores.dmai >= analysis.scores.mai

        # (e) converting one default-constructed dependency to constructor
        # injection keeps mean CBO and shifts mean DCBO down by 1/|classes|
        names = sorted(project.class_names)
        if len(names) >= 2:
            client, dep = rng.sample(names, 2)
            defaulted = _with_forced_construction(project, client, dep)
            injected = _with_constructor_injection(defaulted, client, dep)
            before = analyze_project_model(defaulted, "project")
            after = analyze_project_model(injected, "project")
            assert after.metrics.mean_cbo == before.metrics.mean_cbo
            shift = before.metrics.mean_dcbo - after.metrics.mean_dcbo
            assert shift == pytest.approx(1 / len(names), rel=1e-12)
            conversions += 1
    elapsed = time.perf_counter() - started
    assert conversions >= 100  # the conversion property was actually exercised
    assert elapsed < 30.0, f"property battery took {elapsed:.2f}s"
    _passed(4, f"200-project property battery in {elapsed:.2f}s ({conversions} conversions)")


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


def test_criterion_6_byte_identical_outputs(suite_dirs, tmp_path):
    dirs = [str(d) for d in suite_dirs]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["analyze", *dirs, "--out", str(csv_a)]) == 0
    assert main(["analyze", *dirs, "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["chart", str(csv_a), str(svg_a)]) == 0
    assert main(["chart", str(csv_b), str(svg_b)]) == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    _passed(6, "repeated analyze and chart runs are byte-identical")
