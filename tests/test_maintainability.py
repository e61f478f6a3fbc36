"""Normalization and maintainability index tests."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimetrics.maintainability import compute_scores, normalize_complexity, normalize_lcom
from dimetrics.metrics import ProjectMetrics


def _metrics(cbo=0.0, dcbo=0.0, lcom=0.0, rfc=0.0):
    return ProjectMetrics(
        class_metrics=(),
        mean_cbo=cbo,
        mean_dcbo=dcbo,
        mean_lcom=lcom,
        mean_rfc=rfc,
        total_loc=0,
        di_proportion=0.0,
    )


def test_complexity_normalization_examples():
    assert normalize_complexity(1.82) == pytest.approx(0.6454, abs=5e-5)
    assert normalize_complexity(0.0) == 0.0
    assert normalize_complexity(0.91) == pytest.approx(1 - 1 / 1.91)


def test_complexity_normalization_rejects_negative():
    with pytest.raises(ValueError):
        normalize_complexity(-0.1)


@given(st.floats(min_value=0, max_value=1e9, allow_nan=False))
def test_complexity_normalization_stays_in_unit_interval(x):
    value = normalize_complexity(x)
    assert 0.0 <= value < 1.0


@given(
    st.floats(min_value=0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
def test_complexity_normalization_is_strictly_increasing(x, delta):
    # strict on a float-resolvable domain; saturates toward 1 for huge x
    assert normalize_complexity(x + delta) > normalize_complexity(x)


def test_lcom_normalization_examples():
    assert normalize_lcom(0.0) == 0.0
    assert normalize_lcom(4.0) == 0.25
    assert normalize_lcom(36.49) == pytest.approx(1 / 36.49)
    assert normalize_lcom(36.49) == pytest.approx(0.0274, abs=5e-5)


def test_lcom_normalization_clamps_fractional_means():
    assert normalize_lcom(0.5) == 1.0
    assert normalize_lcom(1.0) == 1.0


def test_lcom_normalization_is_not_monotone():
    """1/LCOM rises to 1 and then falls, so past a mean LCOM of 1 less cohesion raises MAI."""
    values = [normalize_lcom(x) for x in (0.0, 0.5, 1.0, 2.0, 10.0)]
    assert values == [0.0, 1.0, 1.0, 0.5, 0.1]
    assert compute_scores(_metrics(lcom=10.0)).mai > compute_scores(_metrics(lcom=2.0)).mai


def test_lcom_normalization_rejects_negative():
    with pytest.raises(ValueError, match="LCOM must be nonnegative, got -0.5"):
        normalize_lcom(-0.5)


@given(st.floats(min_value=0, max_value=1e9, allow_nan=False))
def test_lcom_normalization_stays_in_unit_interval(x):
    assert 0.0 <= normalize_lcom(x) <= 1.0


def test_scores_for_uninjected_suite_means():
    scores = compute_scores(_metrics(cbo=20 / 11, dcbo=20 / 11, lcom=0.0, rfc=32 / 11))
    assert scores.mai == pytest.approx(0.5368, abs=5e-4)
    assert scores.ncbo == pytest.approx(20 / 31)
    assert scores.nrfc == pytest.approx(32 / 43)
    assert scores.nlcom == 0.0
    assert scores.dmai == scores.mai


def test_scores_all_zero_means_give_perfect_indices():
    scores = compute_scores(_metrics())
    assert scores.mai == 1.0
    assert scores.dmai == 1.0


def test_scores_for_fully_injected_suite_means():
    scores = compute_scores(_metrics(cbo=20 / 11, dcbo=10 / 11, lcom=0.0, rfc=2.0))
    assert scores.ndcbo == pytest.approx(10 / 21)
    assert scores.dmai == pytest.approx(1 - (10 / 21 + 2 / 3) / 3)
    assert scores.dmai == pytest.approx(0.619, abs=5e-4)


@given(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0.01, max_value=10, allow_nan=False),
)
def test_mai_strictly_decreases_in_mean_cbo(cbo, delta):
    low = compute_scores(_metrics(cbo=cbo, rfc=1.0))
    high = compute_scores(_metrics(cbo=cbo + delta, rfc=1.0))
    assert high.mai < low.mai


@given(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0.01, max_value=10, allow_nan=False),
)
def test_dmai_strictly_decreases_in_mean_rfc(rfc, delta):
    low = compute_scores(_metrics(dcbo=1.0, rfc=rfc))
    high = compute_scores(_metrics(dcbo=1.0, rfc=rfc + delta))
    assert high.dmai < low.dmai
