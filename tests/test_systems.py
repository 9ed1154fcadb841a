from fractions import Fraction

import pytest

from airframe.diagram import commutator, evaluate_word
from airframe.systems import PLMap, circle_generators, interval_generators


F = Fraction
H = F(1, 2)


# --- defining relations of the Airplane group -------------------------------

def test_delta_beta_has_order_three(gens):
    db = gens["d"].compose(gens["b"])
    assert db.power(3).is_identity()
    assert not db.is_identity() and not db.power(2).is_identity()


def test_delta_is_an_involution(gens):
    assert gens["d"].power(2).is_identity()


def test_alpha_commutator_identity(gens):
    rhs = commutator(gens["e"], gens["d"]).compose(
        commutator(gens["e"].invert(), gens["a"].power(-2)))
    assert rhs.equals(gens["a"])


def test_epsilon_centralizes_beta_and_gamma(gens):
    for n in ("b", "g"):
        assert gens[n].conjugate(gens["e"]).equals(gens[n])


def test_delta_epsilon_commutator_powers(gens):
    d, e = gens["d"], gens["e"]
    for k in range(1, 6):
        lhs = commutator(d, e).power(k)
        rhs = commutator(d, e.power(k))
        assert lhs.equals(rhs)


def test_basilica_delta_involution(bgens):
    assert bgens["d"].power(2).is_identity()
    for f in bgens.values():
        assert f.validate()


def test_interval_and_circle_generators_validate():
    for table in (interval_generators(), circle_generators()):
        for f in table.values():
            assert f.validate()


def test_thompson_f_relations_in_interval_system():
    table = interval_generators()
    # classical orientation: the inverses of the stored expansion maps
    x0 = [("x0", -1)]
    x1 = [("x1", -1)]
    def ev(word):
        return evaluate_word(table, word)
    def inv(w):
        return [(n, -e) for n, e in reversed(w)]
    r1 = ev(x0 + inv(x1) + inv(x0) + x1 + x0
            + inv(x0 + inv(x1)) + inv(inv(x0) + x1 + x0))
    assert r1.is_identity()


# --- piecewise linear maps ---------------------------------------------------

def test_plmap_evaluation_and_compose():
    f = PLMap([(0, 0), (F(1, 4), H), (H, F(3, 4)), (1, 1)])
    assert f(F(1, 4)) == H
    assert f(F(1, 8)) == F(1, 4)
    assert f.compose(f.invert()).is_identity()
    g = f.compose(f)
    assert g(F(1, 16)) == F(1, 4)


def test_plmap_requires_monotone():
    with pytest.raises(ValueError):
        PLMap([(0, 0), (H, F(3, 4)), (F(3, 4), H), (1, 1)])
    with pytest.raises(ValueError):
        PLMap([(0, F(1, 4)), (1, 1)])  # interval maps fix the ends


def test_circle_plmap_rotation():
    r = PLMap([(0, H)], circle=True)
    assert r(F(1, 4)) == F(3, 4)
    assert r.compose(r).is_identity()
    assert not r.is_identity()
