"""Scale checks, opt in: `python -m pytest -m slow tests/test_scale.py`."""

import pytest

from airframe import components, trees

pytestmark = pytest.mark.slow


def test_intertwine_depth_3_bound_16():
    rep = trees.intertwine_check(3, 16)
    assert rep["ok"] and rep["checked"] == 15428


def test_transitivity_denominator_16_depth_2():
    rep = components.check_k_transitivity(1, "five", 16)
    assert rep["ok"]
    assert rep["checked"] == len(components.enumerate_components(16, 2))
