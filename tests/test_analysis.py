import random
from fractions import Fraction

import pytest

from airframe import analysis
from airframe.diagram import commutator, evaluate_word
from airframe.systems import PLMap

F = Fraction
H = F(1, 2)

NAMES = list("abgde")


def test_generator_derivatives(gens):
    for n in "abgd":
        assert analysis.global_derivative(gens[n]) == 1
    assert analysis.global_derivative(gens["e"]) == 2
    assert abs(analysis.abelianization_image(gens["e"])) == 1


def test_derivative_is_multiplicative(gens):
    rng = random.Random(11)
    for _ in range(25):
        w1 = [(rng.choice(NAMES), rng.choice([1, -1])) for _ in range(5)]
        w2 = [(rng.choice(NAMES), rng.choice([1, -1])) for _ in range(5)]
        f, g = evaluate_word(gens, w1), evaluate_word(gens, w2)
        assert analysis.global_derivative(f.compose(g)) == \
            analysis.global_derivative(f) * analysis.global_derivative(g)


def test_epsilon_powers(gens):
    for k in range(-4, 5):
        assert analysis.global_derivative(gens["e"].power(k)) == \
            analysis.global_derivative(gens["e"]) ** k


def test_commutator_membership(gens):
    assert analysis.is_in_commutator(commutator(gens["d"], gens["e"]))
    assert not analysis.is_in_commutator(gens["e"])
    assert analysis.is_in_commutator(gens["a"])


def test_semidirect_split(gens):
    rng = random.Random(5)
    for _ in range(10):
        w = [(rng.choice(NAMES), rng.choice([1, -1])) for _ in range(6)]
        f = evaluate_word(gens, w)
        c, k = analysis.semidirect_split(f, gens["e"])
        assert analysis.is_in_commutator(c)
        assert c.compose(gens["e"].power(k)).equals(f)


def test_induced_boundary_maps_match_reference(gens):
    y0 = analysis.induced_boundary_map(gens["b"])
    assert y0.breaks == [(F(0), F(0)), (H, F(1, 4)), (F(3, 4), H)]
    y1 = analysis.induced_boundary_map(gens["g"])
    assert y1.breaks == [(F(0), F(0)), (F(1, 4), F(1, 8)),
                         (F(3, 8), F(1, 4)), (H, H)]
    y2 = analysis.induced_boundary_map(gens["d"])
    assert y2 == PLMap([(0, H)], circle=True)


def test_induced_hor_maps_match_reference(gens):
    x0 = analysis.induced_hor_map(gens["a"])
    assert x0.breaks == [(F(0), F(0)), (F(1, 4), H), (H, F(3, 4)),
                         (F(1), F(1))]
    x1 = analysis.induced_hor_map(gens["e"])
    assert x1.breaks == [(F(0), F(0)), (H, H), (F(5, 8), F(3, 4)),
                         (F(3, 4), F(7, 8)), (F(1), F(1))]


def test_rist_predicates(gens):
    assert analysis.is_in_rist_C0(gens["b"])
    assert analysis.is_in_rist_C0(gens["g"])
    assert not analysis.is_in_rist_C0(gens["a"])
    assert analysis.is_in_rist_Hor(gens["a"])
    assert analysis.is_in_rist_Hor(gens["e"])
    # delta swaps the rays but reverses the line: not a Hor rearrangement
    assert not analysis.is_in_rist_Hor(gens["d"])


def test_boundary_map_functorial(gens):
    rng = random.Random(3)
    for _ in range(10):
        w1 = [(rng.choice("bgd"), rng.choice([1, -1])) for _ in range(4)]
        w2 = [(rng.choice("bgd"), rng.choice([1, -1])) for _ in range(4)]
        f, g = evaluate_word(gens, w1), evaluate_word(gens, w2)
        lhs = analysis.induced_boundary_map(f.compose(g))
        rhs = analysis.induced_boundary_map(f).compose(
            analysis.induced_boundary_map(g))
        assert lhs == rhs


def test_is_in_E(gens):
    assert not analysis.is_in_E(gens["e"])
    assert analysis.is_in_E(gens["b"])
    # [d,e] balances its derivatives (2 at one tip, 1/2 at the other)
    # so it lies in the commutator subgroup but not in E
    de = commutator(gens["d"], gens["e"])
    assert analysis.is_in_commutator(de) and not analysis.is_in_E(de)
    rng = random.Random(9)
    for _ in range(20):
        w = [(rng.choice(NAMES), rng.choice([1, -1])) for _ in range(6)]
        f = evaluate_word(gens, w)
        if analysis.is_in_E(f):
            assert analysis.is_in_commutator(f)


def test_blue_edge_length(A):
    from airframe.core import parse_address
    assert analysis.blue_edge_length(A, parse_address("bR")) == 1
    assert analysis.blue_edge_length(A, parse_address("bR.3")) == H
    assert analysis.blue_edge_length(A, parse_address("rT.2")) == 1
    with pytest.raises(ValueError):
        analysis.blue_edge_length(A, parse_address("rT"))


def test_log2_reads_powers_of_two_and_rejects_the_rest():
    assert analysis.log2(F(1, 8)) == -3
    assert analysis.log2(8) == 3
    assert analysis.log2(1) == 0
    for x in (0, -1):  # these never returned before
        with pytest.raises(ValueError, match="not positive"):
            analysis.log2(F(x))
    for x in (F(3, 4), 3, F(1, 3)):
        with pytest.raises(ValueError, match="not a power of two"):
            analysis.log2(x)
