import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from airframe import components as comp
from airframe.diagram import evaluate_word
from airframe.systems import airplane_generators

F = Fraction
H = F(1, 2)

NAMES = list("abgde")

_TABLE = None


def table():
    global _TABLE
    if _TABLE is None:
        _TABLE = airplane_generators()
    return _TABLE


dyadic32 = st.integers(1, 31).map(lambda k: F(k, 32))
angles32 = st.integers(0, 31).map(lambda k: F(k, 32))


@st.composite
def paths(draw, max_depth=3):
    depth = draw(st.integers(0, max_depth))
    out = []
    for i in range(depth):
        t = draw(angles32 if i == 0 else
                 dyadic32.filter(lambda x: x != H))
        out.append((t, draw(dyadic32)))
    return tuple(out)


def test_serialization_roundtrip():
    for p in [(), ((F(0), H),), ((F(3, 8), F(1, 4)), (F(7, 8), H))]:
        assert comp.parse_path(comp.format_path(p)) == p
    assert comp.parse_path("central") == ()
    with pytest.raises(ValueError):
        comp.parse_path("(1/3,1/2)")
    with pytest.raises(ValueError):
        comp.parse_path("(0,1/2);(0,1/4)")  # inner angle 0 is invalid
    # integers, p/q and plain decimals; no exponent notation
    assert comp.parse_path("( 0 , 0.75);(0.125,1/2)") == \
        ((F(0), F(3, 4)), (F(1, 8), H))
    for s in ["(5e-1,1/2)", "(0,2.5E-1)", "(1e0,1/2)"]:
        with pytest.raises(ValueError, match="bad coordinate"):
            comp.parse_path(s)


@settings(max_examples=60, deadline=None)
@given(paths())
def test_address_roundtrip(p):
    assert comp.component_path(comp.path_to_component(p)) == p


def test_known_components():
    # the circle halfway out the right ray
    assert comp.path_to_component(((F(0), H),)) == ("bR", ())
    assert comp.path_to_component(((H, H),)) == ("bL", ())
    assert comp.path_to_component(()) is None


@settings(max_examples=60, deadline=None)
@given(paths(), st.sampled_from(NAMES), st.sampled_from([1, -1]))
def test_fast_action_matches_diagram(p, name, sign):
    f = table()[name] if sign > 0 else table()[name].invert()
    assert comp.act(name, sign, p) == comp.map_component(f, p)


@settings(max_examples=30, deadline=None)
@given(paths(max_depth=2),
       st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from([1, -1])),
                min_size=0, max_size=5))
def test_map_component_functorial(p, word):
    f = evaluate_word(table(), word)
    assert comp.map_component(f, p) == comp.act_word(word, p)


def test_alpha_moves_center_one_way():
    hits = [comp.act("a", 1, ()) == ((F(0), H),),
            comp.act("a", -1, ()) == ((F(0), H),)]
    assert hits.count(True) == 1


def test_rist_fixes_center(gens):
    rng = random.Random(2)
    for _ in range(20):
        word = [(rng.choice("bg"), rng.choice([1, -1])) for _ in range(5)]
        assert comp.act_word(word, ()) == ()


def test_alignment_examples():
    two = [((F(3, 8), H),), ((F(5, 8), F(1, 4)), (F(1, 8), H))]
    assert comp.aligned(two) is not None
    rays3 = [((F(0), H),), ((F(1, 4), H),), ((H, H),)]
    assert comp.aligned(rays3) is None
    hor3 = [((F(0), F(1, 4)),), ((F(0), H),), ((F(0), F(3, 4)),)]
    ordered = comp.aligned(hor3)
    assert ordered is not None and set(ordered) == set(hor3)
    with pytest.raises(ValueError):
        comp.aligned([(), ()])


@settings(max_examples=40, deadline=None)
@given(paths(max_depth=2), paths(max_depth=2), paths(max_depth=2),
       st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from([1, -1])),
                min_size=1, max_size=5))
def test_alignment_is_invariant(p1, p2, p3, word):
    cs = [p1, p2, p3]
    if len(set(cs)) != 3:
        return
    imgs = [comp.act_word(word, c) for c in cs]
    assert (comp.aligned(cs) is None) == (comp.aligned(imgs) is None)


def test_orbit_search_basics():
    assert comp.orbit_search((), (), 3) == []
    w = comp.orbit_search(((F(0), H),), (), 2, table=table())
    assert w == [("a", -1)]
    assert comp.orbit_search((), ((F(0), H),), 0) is None


def test_orbit_search_verifies_words():
    src = ((F(1, 4), H),)
    w = comp.orbit_search(src, (), 3, table=table())
    assert w is not None
    assert comp.act_word(w, src) == ()


def test_solver_reaches_center():
    rng = random.Random(4)
    all_paths = comp.enumerate_components(8, 2)
    for p in rng.sample(all_paths, 25):
        for gen_set in ("five", "commutator"):
            w = comp.solve_to_center(p, gen_set)
            assert w is not None
            assert comp.act_word(w, p) == ()
            assert comp.word_cost(w, gen_set) <= 30


def test_solver_verified_by_diagrams():
    rng = random.Random(6)
    all_paths = comp.enumerate_components(8, 2)
    for p in rng.sample(all_paths, 5):
        w = comp.solve_to_center(p)
        f = evaluate_word(table(), w)
        assert comp.map_component(f, p) == ()


def test_pair_solver():
    rng = random.Random(8)
    all_paths = comp.enumerate_components(8, 2)
    for _ in range(8):
        c1, c2 = rng.sample(all_paths, 2)
        w = comp.solve_pair(c1, c2)
        assert comp.act_word(w, c1) == ()
        assert comp.act_word(w, c2) == ((F(0), H),)


def test_enumeration_counts():
    assert len(comp.enumerate_components(8, 0)) == 1
    assert len(comp.enumerate_components(8, 1)) == 1 + 8 * 7
    assert len(comp.enumerate_components(8, 2)) == 1 + 56 + 56 * 42


def test_sampled_pairs_match_the_full_pair_list():
    comps = comp.enumerate_components(4, 2)
    full = [(x, y) for x in comps for y in comps if x != y]
    assert list(comp.ordered_pairs(comps)) == full
    for seed in range(5):
        picked = list(comp.ordered_pairs(comps, 20, random.Random(seed)))
        assert picked == random.Random(seed).sample(full, 20)


def test_each_commutator_symbol_costs_one():
    words = comp._MOVES["commutator"]
    assert tuple(map(tuple, words)) == comp.COMMUTATOR_SYMBOLS
    for w in words:
        assert comp.word_cost(w, "commutator") == 1
    # the symbols come in inverse pairs: [d,e] and [e^-1, e^-1 a]
    for w, w_inv in (words[:2], words[2:]):
        assert evaluate_word(table(), list(w) + list(w_inv)).is_identity()
