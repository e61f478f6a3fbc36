"""Friedman test, Holm correction, and chi-square kernel tests."""
from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimetrics.cli import main
from dimetrics.stats import (
    RankMatrix,
    chi_square_upper_tail,
    friedman_test,
    holm_adjust,
    split_by_threshold,
)

from conftest import RANK_MATRIX_ERRORS

# DMAI-like values for an 11-point suite: strictly increasing with DI.
SUITE = [(k / 10, 0.53 + 0.009 * k) for k in range(11)]


def _matrix(treatments, blocks):
    """A rank matrix built directly, with every observation in a block."""
    return RankMatrix(treatments, blocks, (len(blocks),) * len(treatments))


def test_split_excludes_boundary_and_pairs_by_sorted_di():
    matrix = split_by_threshold(SUITE, threshold=0.5, boundary="exclude")
    assert matrix.treatments == ("No DI", "DI")
    assert len(matrix.blocks) == 5
    # i-th smallest DI of each side pairs together: (0.0, 0.6), (0.1, 0.7), ...
    assert matrix.blocks[0] == (SUITE[0][1], SUITE[6][1])
    assert matrix.blocks[4] == (SUITE[4][1], SUITE[10][1])


def test_split_boundary_lower_and_upper():
    lower = split_by_threshold(SUITE, threshold=0.5, boundary="lower")
    upper = split_by_threshold(SUITE, threshold=0.5, boundary="upper")
    # 0.5 goes to "No DI" under lower, to "DI" under upper; both truncate 6v5 -> 5
    assert lower.group_sizes == (6, 5) and upper.group_sizes == (5, 6)
    assert len(lower.blocks) == 5 and len(upper.blocks) == 5
    assert lower.blocks[4][0] == SUITE[4][1]
    assert upper.blocks[0][1] == SUITE[5][1]


def test_split_warns_when_truncating(paper_suite, capsys):
    """The stats command reports truncation as a positioned diagnostic,
    not as a Python warning."""
    report = paper_suite[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stats", str(report), "--boundary", "lower"]) == 0
    assert capsys.readouterr().err == (
        f"{report}:1:1: warning: unequal group sizes (6 vs 5); truncating to the shorter\n"
    )


def test_split_with_exactly_two_projects_on_each_side_is_accepted():
    matrix = split_by_threshold([(0.1, 1.0), (0.2, 2.0), (0.8, 3.0), (0.9, 4.0)], 0.5)
    assert matrix.group_sizes == (2, 2) and matrix.blocks == ((1.0, 3.0), (2.0, 4.0))


def test_split_with_empty_side_errors_and_names_threshold():
    with pytest.raises(ValueError, match="-1.0"):
        split_by_threshold(SUITE, threshold=-1.0)


def test_split_rejects_unknown_boundary():
    with pytest.raises(ValueError):
        split_by_threshold(SUITE, threshold=0.5, boundary="nearest")


def test_rank_matrix_validation():
    for treatments, blocks, message in RANK_MATRIX_ERRORS:
        with pytest.raises(ValueError, match=message):
            _matrix(treatments, blocks)
    with pytest.raises(ValueError, match="finite"):
        split_by_threshold(SUITE[:5] + [(0.9, math.nan)] + SUITE[6:], threshold=0.5)


def test_friedman_on_uniformly_dominated_split():
    matrix = split_by_threshold(SUITE, threshold=0.5)
    result = friedman_test(matrix, alpha=0.05)
    # closed form: n=5, k=2, rank sums 5 and 10
    # chi2 = 12/(5*2*3) * (25 + 100) - 3*5*3 = 50 - 45 = 5
    assert result.chi_square == pytest.approx(5.0)
    assert result.df == 1
    assert result.p_value == pytest.approx(math.erfc(math.sqrt(5 / 2)), abs=1e-12)
    assert result.p_value == pytest.approx(0.0253, abs=5e-4)
    assert result.mean_ranks == {"No DI": 1.0, "DI": 2.0}
    assert len(result.pairwise) == 1
    comparison = result.pairwise[0]
    assert comparison.raw_p == comparison.adjusted_p
    assert comparison.rejected


def test_friedman_constant_matrix_is_null():
    matrix = _matrix(("a", "b"), ((1.0, 1.0),) * 4)
    result = friedman_test(matrix)
    assert result.chi_square == 0.0
    assert result.p_value == 1.0
    assert not result.pairwise[0].rejected


def test_friedman_latin_square_has_zero_statistic():
    # every treatment receives each rank exactly once
    matrix = _matrix(
        ("a", "b", "c"),
        ((1.0, 2.0, 3.0), (2.0, 3.0, 1.0), (3.0, 1.0, 2.0)),
    )
    result = friedman_test(matrix)
    assert result.chi_square == pytest.approx(0.0)
    assert result.p_value == pytest.approx(1.0)


def test_friedman_handles_ties_with_midranks():
    matrix = _matrix(("a", "b"), ((1.0, 1.0), (1.0, 2.0), (0.0, 5.0)))
    result = friedman_test(matrix)
    assert result.mean_ranks["a"] == pytest.approx((1.5 + 1 + 1) / 3)
    assert result.mean_ranks["b"] == pytest.approx((1.5 + 2 + 2) / 3)


@given(
    st.lists(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=3),
        min_size=2,
        max_size=8,
    )
)
def test_rank_sums_identity(rows):
    matrix = _matrix(("a", "b", "c"), tuple(tuple(r) for r in rows))
    result = friedman_test(matrix)
    n, k = len(matrix.blocks), len(matrix.treatments)
    total = sum(result.mean_ranks.values()) * n
    assert total == pytest.approx(n * k * (k + 1) / 2)


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False).map(
                lambda v: round(v, 3)  # coarse values keep the affine map injective in floats
            ),
            min_size=2,
            max_size=2,
        ),
        min_size=2,
        max_size=6,
    ),
    st.lists(st.floats(min_value=0.1, max_value=5, allow_nan=False), min_size=6, max_size=6),
)
def test_statistic_invariant_under_blockwise_monotone_maps(rows, slopes):
    matrix = _matrix(("a", "b"), tuple(tuple(r) for r in rows))
    transformed = tuple(
        tuple(slopes[i % len(slopes)] * v + i for v in row) for i, row in enumerate(matrix.blocks)
    )
    result = friedman_test(matrix)
    result_t = friedman_test(_matrix(matrix.treatments, transformed))
    assert result_t.chi_square == pytest.approx(result.chi_square)
    assert result_t.p_value == pytest.approx(result.p_value)


def test_holm_adjustment_properties():
    raw = [0.01, 0.04, 0.03, 0.5]
    adjusted = holm_adjust(raw)
    assert all(a >= r for a, r in zip(adjusted, raw))
    # monotone nondecreasing when sorted by raw p
    order = sorted(range(len(raw)), key=lambda i: raw[i])
    ordered = [adjusted[i] for i in order]
    assert ordered == sorted(ordered)
    assert adjusted == [0.04, 0.09, 0.09, 0.5]


def test_an_adjusted_p_equal_to_alpha_is_retained():
    """A comparison is rejected only strictly below alpha."""
    matrix = split_by_threshold(SUITE, threshold=0.5)
    [comparison] = friedman_test(matrix).pairwise
    alpha = comparison.adjusted_p
    assert not friedman_test(matrix, alpha=alpha).pairwise[0].rejected
    assert friedman_test(matrix, alpha=math.nextafter(alpha, 1.0)).pairwise[0].rejected


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=8))
def test_holm_never_rejects_what_raw_testing_retains(raw):
    alpha = 0.05
    for raw_p, adj_p in zip(raw, holm_adjust(raw)):
        if raw_p >= alpha:
            assert adj_p >= alpha


def test_chi_square_upper_tail_examples():
    assert chi_square_upper_tail(0.0, 1) == 1.0
    # df=1 tail equals the two-sided normal tail: z = sqrt(x)
    assert chi_square_upper_tail(3.841, 1) == pytest.approx(
        math.erfc(math.sqrt(3.841 / 2)), abs=1e-12
    )
    assert chi_square_upper_tail(3.841, 1) == pytest.approx(0.0500, abs=5e-4)
    assert chi_square_upper_tail(5.0, 1) == pytest.approx(
        math.erfc(math.sqrt(2.5)), abs=1e-12
    )
    assert chi_square_upper_tail(5.0, 1) == pytest.approx(0.0253, abs=5e-4)


def test_chi_square_upper_tail_df2_closed_form():
    for x in (0.1, 1.0, 4.0, 17.3, 40.0):
        assert chi_square_upper_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)


def test_chi_square_upper_tail_contract_violations():
    with pytest.raises(ValueError):
        chi_square_upper_tail(1.0, 0)
    with pytest.raises(ValueError):
        chi_square_upper_tail(-0.5, 1)


def test_chi_square_upper_tail_at_infinity_and_nan():
    for df in range(1, 41):
        assert chi_square_upper_tail(math.inf, df) == 0.0, df
        with pytest.raises(ValueError):
            chi_square_upper_tail(math.nan, df)


@given(
    st.floats(min_value=0, max_value=40, allow_nan=False),
    st.integers(min_value=1, max_value=6),
)
def test_chi_square_upper_tail_is_a_probability(x, df):
    value = chi_square_upper_tail(x, df)
    assert 0.0 <= value <= 1.0
