"""Scale checks, opt in: `python -m pytest -m slow tests/test_scale.py`."""

import pytest

from airframe import components, trees

import reference_reports as reference

pytestmark = pytest.mark.slow


def test_intertwine_depth_3_bound_16():
    rep = trees.intertwine_check(3, 16)
    assert rep["ok"] and rep["checked"] == 15428


@pytest.mark.parametrize("pairing", [None, [("a", "b"), ("b", "a"),
                                            ("g", "c"), ("d", "d")]])
def test_intertwine_depth_3_bound_16_equals_the_reference(pairing):
    """The chain-action report against the one that reads every
    Airplane image off the generator diagrams."""
    rep = trees.intertwine_check(3, 16, pairing)
    assert rep == reference.intertwine_check(3, 16, pairing)
    assert rep["ok"] == (pairing is None)


def test_transitivity_denominator_16_depth_2():
    rep = components.check_k_transitivity(1, "five", 16)
    assert rep["ok"]
    assert rep["checked"] == len(components.enumerate_components(16, 2))


def test_commutator_pair_transitivity_denominator_8_depth_1():
    """Every ordered pair at (8, 1), with words in [T_A, T_A]; ray
    position 33/64 needs a 44-letter word on the way."""
    rep = components.check_k_transitivity(2, "commutator", 8, max_depth=1)
    assert rep["ok"] and rep["checked"] == 57 * 56
