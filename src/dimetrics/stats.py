"""Friedman rank test with Holm-adjusted pairwise comparisons.

Projects are split into two treatment groups ("No DI" / "DI") around a DI
proportion threshold; blocks pair the i-th smallest-DI project of one group
with the i-th of the other.  Within each block values receive midranks, the
statistic is

    chi2 = 12 / (n k (k+1)) * sum_j R_j^2  -  3 n (k+1)

with R_j the rank sums, and the p-value comes from the chi-square upper tail
with k-1 degrees of freedom.  Pairwise mean-rank differences are z-tested
with standard error sqrt(k (k+1) / (6 n)) and Holm-corrected; a hypothesis
is rejected when its adjusted p is strictly below alpha.

The chi-square tail for integer df is the regularized upper incomplete gamma
Q(df/2, x/2), summed exactly: it starts from erfc(sqrt(x/2)) for odd df or
exp(-x/2) for even df and adds one positive term per unit step of the shape,
so no iteration limit or convergence test is needed.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations


# ---------------------------------------------------------------------------
# Chi-square survival function
# ---------------------------------------------------------------------------


def chi_square_upper_tail(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if not x >= 0:  # also true for nan
        raise ValueError(f"statistic must be a nonnegative number, got {x}")
    if x == math.inf:
        return 0.0
    h = x / 2.0
    if h == 0:  # also for the smallest subnormal x, whose half rounds to 0
        return 1.0
    # Q(df/2, h) climbs from Q(1/2, h) or Q(1, h) by
    # Q(a+1, h) = Q(a, h) + h^a e^-h / Gamma(a+1); every term is positive.
    if df % 2:
        a, tail = 0.5, math.erfc(math.sqrt(h))
    else:
        a, tail = 1.0, math.exp(-h)
    log_h = math.log(h)
    while a < df / 2.0:
        tail += math.exp(a * log_h - h - math.lgamma(a + 1.0))
        a += 1.0
    return min(tail, 1.0)


# ---------------------------------------------------------------------------
# Rank matrix construction
# ---------------------------------------------------------------------------


class RankMatrix(namedtuple("RankMatrix", "treatments blocks group_sizes")):
    """n blocks (rows) of paired observations across k named treatments.

    ``group_sizes`` holds each treatment's number of observations before
    the groups were truncated to n blocks.
    """

    __slots__ = ()

    def __new__(cls, treatments, blocks, group_sizes):
        if len(treatments) < 2:
            raise ValueError("a rank matrix needs at least 2 treatments")
        if len(blocks) < 2:
            raise ValueError("a rank matrix needs at least 2 blocks")
        for row in blocks:
            if len(row) != len(treatments):
                raise ValueError("every block must cover every treatment")
            if not all(math.isfinite(value) for value in row):
                raise ValueError(f"block values must be finite, got {row}")
        return super().__new__(cls, treatments, blocks, group_sizes)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def split_by_threshold(
    projects: Sequence[tuple[float, float]],
    threshold: float,
    boundary: str = "exclude",
) -> RankMatrix:
    """Split (di_proportion, score) pairs into a paired two-column matrix.

    ``boundary`` decides where observations exactly at the threshold go:
    "exclude" drops them, "lower" sends them to "No DI", "upper" to "DI".
    Groups are sorted ascending by DI proportion and paired positionally;
    a longer group is truncated to the shorter, which the caller can tell
    from the matrix's ``group_sizes``.
    """
    if boundary not in ("exclude", "lower", "upper"):
        raise ValueError(f"unknown boundary rule {boundary!r}")
    low: list[tuple[float, float]] = []
    high: list[tuple[float, float]] = []
    for proportion, score in projects:
        if proportion < threshold:
            low.append((proportion, score))
        elif proportion > threshold:
            high.append((proportion, score))
        elif boundary == "lower":
            low.append((proportion, score))
        elif boundary == "upper":
            high.append((proportion, score))
    if len(low) < 2 or len(high) < 2:
        raise ValueError(f"cannot split at threshold {threshold}: need at least 2 projects on"
                         f" each side, got {len(low)} below and {len(high)} above")
    low.sort(key=lambda item: item[0])
    high.sort(key=lambda item: item[0])
    blocks = tuple((a[1], b[1]) for a, b in zip(low, high))
    return RankMatrix(("No DI", "DI"), blocks, group_sizes=(len(low), len(high)))


# ---------------------------------------------------------------------------
# Friedman test
# ---------------------------------------------------------------------------


PairwiseComparison = namedtuple("PairwiseComparison", [
    "pair",  # the two treatment names
    "z", "raw_p", "adjusted_p", "rejected",
])
FriedmanResult = namedtuple("FriedmanResult", [
    "chi_square", "df", "p_value",
    "mean_ranks",  # treatment name -> mean rank
    "pairwise",  # a tuple of PairwiseComparison
])


def _midranks(row: Sequence[float]) -> list[float]:
    ranks = []
    for value in row:
        less = sum(1 for other in row if other < value)
        equal = sum(1 for other in row if other == value)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def holm_adjust(raw: Sequence[float]) -> list[float]:
    """Holm step-down adjustment; output order matches input order."""
    m = len(raw)
    order = sorted(range(m), key=lambda i: raw[i])
    adjusted = [0.0] * m
    running = 0.0
    for position, index in enumerate(order):
        candidate = min((m - position) * raw[index], 1.0)
        running = max(running, candidate)
        adjusted[index] = running
    return adjusted


def friedman_test(matrix: RankMatrix, alpha: float = 0.05) -> FriedmanResult:
    n = len(matrix.blocks)
    k = len(matrix.treatments)
    rank_sums = [0.0] * k
    for row in matrix.blocks:
        for j, rank in enumerate(_midranks(row)):
            rank_sums[j] += rank
    chi_square = 12.0 / (n * k * (k + 1)) * sum(r * r for r in rank_sums) - 3.0 * n * (k + 1)
    chi_square = max(chi_square, 0.0)  # guard float cancellation at the null
    p_value = chi_square_upper_tail(chi_square, k - 1)
    mean_ranks = {name: rank_sums[j] / n for j, name in enumerate(matrix.treatments)}

    se = math.sqrt(k * (k + 1) / (6.0 * n))
    pairs = list(combinations(range(k), 2))
    z_values = [abs(rank_sums[i] - rank_sums[j]) / n / se for i, j in pairs]
    raw_ps = [math.erfc(z / math.sqrt(2.0)) for z in z_values]  # two-sided: 2 P(Z >= z)
    adjusted = holm_adjust(raw_ps)
    pairwise = tuple(
        PairwiseComparison((matrix.treatments[i], matrix.treatments[j]), z, raw, adj, adj < alpha)
        for (i, j), z, raw, adj in zip(pairs, z_values, raw_ps, adjusted)
    )
    return FriedmanResult(chi_square, k - 1, p_value, mean_ranks, pairwise)
