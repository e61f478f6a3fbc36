"""Metric normalization and the maintainability indices.

Unbounded complexity values (mean CBO, mean RFC, mean DCBO) are squashed
into [0, 1) with 1 - 1/(1 + x).  Mean LCOM uses 1/LCOM, 0 at 0 and clamped
to 1 in (0, 1) so the index bounds survive: 0 -> 0, 0.5 and 1 -> 1, 2 -> 0.5
and 10 -> 0.1.  That is not monotone: past a mean LCOM of 1, less cohesion
raises MAI/DMAI.  The indices average the three normalized terms:

    mai  = 1 - ncbo/3  - nlcom/3 - nrfc/3
    dmai = 1 - ndcbo/3 - nlcom/3 - nrfc/3

Both lie in [0, 1]; higher is more maintainable.  Since ndcbo <= ncbo,
dmai >= mai always, with equality exactly when nothing is injected.
Normalization is applied to the project means, not per class.
"""
from __future__ import annotations

from collections import namedtuple

from .metrics import ProjectMetrics


MaintainabilityScores = namedtuple("MaintainabilityScores", "ncbo nrfc nlcom ndcbo mai dmai")


def normalize_complexity(value: float) -> float:
    """Map a nonnegative complexity value into [0, 1), strictly increasing."""
    if value < 0:
        raise ValueError(f"complexity value must be nonnegative, got {value}")
    return 1.0 - 1.0 / (1.0 + value)


def normalize_lcom(value: float) -> float:
    """Reciprocal normalization of LCOM, clamped into [0, 1]."""
    if value < 0:
        raise ValueError(f"LCOM must be nonnegative, got {value}")
    if value == 0:
        return 0.0
    return min(1.0 / value, 1.0)


def compute_scores(metrics: ProjectMetrics) -> MaintainabilityScores:
    ncbo = normalize_complexity(metrics.mean_cbo)
    nrfc = normalize_complexity(metrics.mean_rfc)
    ndcbo = normalize_complexity(metrics.mean_dcbo)
    nlcom = normalize_lcom(metrics.mean_lcom)
    mai = 1.0 - ncbo / 3.0 - nlcom / 3.0 - nrfc / 3.0
    dmai = 1.0 - ndcbo / 3.0 - nlcom / 3.0 - nrfc / 3.0
    return MaintainabilityScores(ncbo=ncbo, nrfc=nrfc, nlcom=nlcom, ndcbo=ndcbo, mai=mai, dmai=dmai)
