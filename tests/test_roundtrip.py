"""Round trip: a random project printed with ``print_class`` and parsed
back has the models and the metrics of the project it was printed from.

The assertions are the property battery's (e) in ``test_acceptance.py``.
"""
from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from conftest import random_project
from test_acceptance import analyzed, check_printed_metrics, check_printed_models, printed_and_parsed


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_printed_project_parses_back_to_its_model(seed):
    project = random_project(random.Random(seed))
    check_printed_models(analyzed(project), printed_and_parsed(project))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_printed_project_has_the_metrics_of_its_model(seed):
    project = random_project(random.Random(seed))
    check_printed_metrics(analyzed(project), printed_and_parsed(project))
