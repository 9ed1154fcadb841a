import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

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


def test_circle_plmap_of_one_slope_is_a_rotation():
    assert PLMap([(F(1, 4), F(1, 4))], circle=True).is_identity()
    assert PLMap([(F(3, 4), F(1, 4))], circle=True).breaks == [(0, H)]
    half_turn = PLMap([(0, H)], circle=True)
    assert half_turn.invert() == half_turn
    assert half_turn.invert().breaks == [(0, H)]


def test_empty_circle_plmap_is_refused():
    with pytest.raises(ValueError, match="empty circle map"):
        PLMap([], circle=True)
    with pytest.raises(ValueError, match="interval map must fix 0 and 1"):
        PLMap([])


def dyadic_points(rng, circle):
    """Seeded breakpoints of an increasing dyadic map: sorted x, and y
    sorted then turned cyclically for a circle map, which gives degree
    one; an interval map gets its ends."""
    den = 2 ** rng.randint(1, 5)
    lo = 0 if circle else 1
    grid = [F(k, den) for k in range(lo, den)]
    n = rng.randint(1, min(6, len(grid)))
    xs, ys = sorted(rng.sample(grid, n)), sorted(rng.sample(grid, n))
    if circle:
        turn = rng.randrange(n)
        return list(zip(xs, ys[turn:] + ys[:turn]))
    return [(F(0), F(0))] + list(zip(xs, ys)) + [(F(1), F(1))]


def interpolate(points, circle, x):
    """The map through `points` at x, read off the segment between the
    two points around x; a circle map's y is lifted to increase, and its
    last point is repeated one period back and its first one on."""
    if circle:
        lifted = []
        for px, py in points:
            while lifted and py <= lifted[-1][1]:
                py += 1
            lifted.append((px, py))
        (lx, ly), (fx, fy) = lifted[-1], lifted[0]
        points = [(lx - 1, ly - 1)] + lifted + [(fx + 1, fy + 1)]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            y = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            return y % 1 if circle else y


seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=200, deadline=None)
@given(seeds, st.booleans())
def test_plmap_canonical_form(seed, circle):
    rng = random.Random(seed)
    points = dyadic_points(rng, circle)
    f = PLMap(points, circle=circle)
    assert f.invert().invert() == f
    assert f.compose(f.invert()).is_identity()
    assert f.invert().compose(f).is_identity()
    # any point of f's own graph adds no breakpoint
    for _ in range(4):
        x = F(rng.randrange(0 if circle else 1, 64), 64)
        if all(x != bx for bx, _ in f.breaks):
            assert PLMap(f.breaks + [(x, f(x))], circle=circle).breaks \
                == f.breaks
    for _ in range(8):
        x = F(rng.randrange(0, 256 if circle else 257), 256)
        assert f(x) == interpolate(points, circle, x)


@st.composite
def plmaps(draw):
    """A PL map whose breakpoints lie on 1/2^j or 1/(3 * 2^k), so they
    need not be dyadic and their largest denominator is not always
    their common one; built as dyadic_points builds one."""
    circle = draw(st.booleans())
    lo = 0 if circle else 1
    dens = (draw(st.sampled_from([2 ** j for j in range(1, 6)])),
            draw(st.sampled_from([3 * 2 ** k for k in range(5)])))
    grid = sorted({F(k, den) for den in dens for k in range(lo, den)})
    n = draw(st.integers(1, min(6, len(grid))))
    pick = st.lists(st.sampled_from(grid), min_size=n, max_size=n,
                    unique=True).map(sorted)
    xs, ys = draw(pick), draw(pick)
    if circle:
        turn = draw(st.integers(0, n - 1))
        return PLMap(list(zip(xs, ys[turn:] + ys[:turn])), circle=True)
    return PLMap([(0, 0)] + list(zip(xs, ys)) + [(1, 1)])


def points(f):
    """(n, d) for a point of f's domain: any n for a circle map."""
    d = st.integers(1, 3 * 2 ** 7)
    if f.circle:
        return st.tuples(st.integers(-3 * 2 ** 9, 3 * 2 ** 9), d)
    return d.flatmap(lambda d: st.tuples(st.integers(0, d), st.just(d)))


@settings(max_examples=300, deadline=None)
@given(st.data(), plmaps())
def test_plmap_image_reads_the_line_through_its_piece(data, f):
    n, d = data.draw(points(f))
    num, den = f.image(n, d)
    # reduced, and the piece's line through its two breakpoints
    assert den > 0 and gcd(num, den) == 1
    x = F(n, d) % 1 if f.circle else F(n, d)
    assert F(num, den) == interpolate(f.breaks, f.circle, x)
    assert f(F(n, d)) == F(*f.image(*F(n, d).as_integer_ratio()))
    # an unreduced pair has the same image
    assert f.image(3 * n, 3 * d) == (num, den)
    if f.circle:  # a circle map reads n/d mod 1
        k = data.draw(st.integers(-4, 4))
        assert f.image(n + k * d, d) == (num, den)


@settings(max_examples=100, deadline=None)
@given(st.data(), plmaps().filter(lambda f: not f.circle))
def test_interval_plmap_image_refuses_points_outside_0_1(data, f):
    d = data.draw(st.integers(1, 3 * 2 ** 7))
    n = data.draw(st.integers(-4 * d, -1) | st.integers(d + 1, 5 * d))
    with pytest.raises(ValueError, match="out of domain"):
        f.image(n, d)
    with pytest.raises(ValueError, match="out of domain"):
        f(F(n, d))
