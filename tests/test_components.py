import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from airframe import components as comp
from airframe.analysis import is_in_commutator
from airframe.diagram import evaluate_word
from airframe.systems import airplane_generators

import reference_reports as reference

F = Fraction
H = F(1, 2)

NAMES = list("abgde")

_TABLE = None


def table():
    global _TABLE
    if _TABLE is None:
        _TABLE = airplane_generators()
    return _TABLE


def dyadics(den, low=1):
    """k/den for low <= k < den."""
    return st.integers(low, den - 1).map(lambda k: F(k, den))


@st.composite
def paths(draw, max_depth=3, den=32):
    depth = draw(st.integers(0, max_depth))
    out = []
    for i in range(depth):
        t = draw(dyadics(den, 0) if i == 0 else
                 dyadics(den).filter(lambda x: x != H))
        out.append((t, draw(dyadics(den))))
    return tuple(out)


def words(max_size):
    return st.lists(st.tuples(st.sampled_from(NAMES),
                              st.sampled_from([1, -1])), max_size=max_size)


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


@pytest.mark.parametrize("text, message", [
    ("(1/3,1/2)", "not dyadic: 1/3"),
    ("(0,3/10)", "not dyadic: 3/10"),
    ("(1,1/2)", "coordinate out of range"),
    ("(0,0)", "coordinate out of range"),
    ("(0,1)", "coordinate out of range"),
    ("(-1/4,1/2)", "coordinate out of range"),
    ("(1/4,1/2);(0,1/4)", "inner angle 0 or 1/2 names no ray"),
    ("(1/4,1/2);(1/2,1/4)", "inner angle 0 or 1/2 names no ray"),
    # the whole chain is read step by step, each step's rules in order
    ("(1/4,1);(1/3,1/2)", "coordinate out of range"),
    ("(1/4,1/2);(0,1/3)", "not dyadic: 1/3"),
])
def test_parse_path_and_check_chain_fail_alike(text, message):
    steps = [part.strip("()").split(",") for part in text.split(";")]
    path = tuple((F(t), F(l)) for t, l in steps)
    errors = []
    for check in (lambda: comp.parse_path(text),
                  lambda: comp.validate_path(path),
                  lambda: comp.check_chain(comp.path_chain(path))):
        with pytest.raises(ValueError) as err:
            check()
        errors.append(str(err.value))
    assert errors == [message] * 3


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
@given(paths(max_depth=2), words(5))
def test_map_component_functorial(p, word):
    f = evaluate_word(table(), word)
    assert comp.map_component(f, p) == comp.act_word(word, p)


@settings(max_examples=300, deadline=None)
@given(paths(den=64), words(40))
def test_chain_action_matches_act(p, word):
    """The one rule, chain_act, and act read back from it, against the
    Fraction action that reference_reports keeps."""
    want = reference.act_word(word, p)
    assert comp.chain_act_word(word, comp.path_chain(p)) == \
        comp.path_chain(want)
    assert comp.act_word(word, p) == want


def test_chain_action_takes_exponents_and_names_unknown_generators():
    c = comp.path_chain(((F(1, 4), F(3, 8)), (F(5, 8), H)))
    for name in NAMES:
        assert comp.chain_act_word([(name, -3)], c) == \
            comp.chain_act_word([(name, -1)] * 3, c)
    with pytest.raises(ValueError, match="unknown generator 'x'"):
        comp.chain_act("x", 1, c)


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


def test_witness_check_is_live(monkeypatch):
    """A solver word short of one letter fails the transitivity check.
    The reports take their words from a WordTable, so that is where the
    letter is dropped."""
    rng = random.Random(3)
    assert comp.check_k_transitivity(1, "five", 4)["ok"]
    assert comp.check_k_transitivity(2, "five", 4, sample=20, rng=rng)["ok"]
    to_center, pair = comp.WordTable.to_center, comp.WordTable.pair
    monkeypatch.setattr(comp.WordTable, "to_center",
                        lambda self, c: to_center(self, c)[1:])
    rep = comp.check_k_transitivity(1, "five", 4)
    assert rep["failures"] == [comp.format_path(c) for c in
                               comp.enumerate_components(4, 2)[1:]]
    monkeypatch.setattr(comp.WordTable, "to_center", to_center)
    monkeypatch.setattr(comp.WordTable, "pair",
                        lambda self, c1, c2: pair(self, c1, c2)[1:])
    rep = comp.check_k_transitivity(2, "five", 4, sample=20, rng=rng)
    assert len(rep["failures"]) == 20


@pytest.mark.parametrize("max_den, max_depth", [(4, 2), (8, 1)])
@pytest.mark.parametrize("gen_set", ["five", "commutator"])
def test_word_table_gives_the_standalone_words(max_den, max_depth, gen_set):
    """Every component's tabled word is the standalone solver's, in
    enumeration order (depth-1 paths known first) and in reverse."""
    comps = comp.enumerate_components(max_den, max_depth)
    alone = [comp.solve_to_center(c, gen_set) for c in comps]
    for order in (comps, comps[::-1]):
        words = comp.WordTable(gen_set)
        assert {c: words.to_center(c) for c in order} \
            == dict(zip(comps, alone))
    words = comp.WordTable(gen_set)
    for c in comps[:0:-1]:
        assert words.to_center_fixing_center(c) \
            == comp.solve_to_center_fixing_center(c, gen_set)


@pytest.mark.parametrize("seed", range(4))
def test_word_table_gives_the_standalone_pair_words(seed):
    comps = comp.enumerate_components(4, 2)
    for gen_set in comp.GEN_SETS:
        words = comp.WordTable(gen_set)
        for c1, c2 in comp.ordered_pairs(comps, 40, random.Random(seed)):
            assert words.pair(c1, c2) == comp.solve_pair(c1, c2, gen_set)


@pytest.mark.parametrize("levels", [1, 2])
def test_word_table_keeps_the_level_budgets(monkeypatch, levels):
    """With budgets of one or two levels, a depth-2 component is out of
    reach or just within it, whether or not the path its first level
    leaves is already in the table."""
    monkeypatch.setattr(comp, "CENTER_LEVELS", levels)
    monkeypatch.setattr(comp, "FIXING_LEVELS", levels)
    comps = comp.enumerate_components(4, 2)
    alone = [comp.solve_to_center(c) for c in comps]
    fixing = [comp.solve_to_center_fixing_center(c) for c in comps[1:]]
    assert (None in alone) == (levels == 1) == (None in fixing)
    for order in (comps, comps[::-1]):
        words = comp.WordTable()
        assert {c: words.to_center(c) for c in order} \
            == dict(zip(comps, alone))
        words = comp.WordTable()
        assert {c: words.to_center_fixing_center(c) for c in order if c} \
            == dict(zip(comps[1:], fixing))


def test_report_words_are_the_standalone_words(monkeypatch):
    """The words each report checks, recorded as the table hands them
    out, equal the standalone solver's.  The standalone solvers are a
    fresh table of the patched class, so the spies compare against the
    original methods on a fresh table."""
    seen = []
    to_center, pair = comp.WordTable.to_center, comp.WordTable.pair

    def spy_to_center(self, c):
        word = to_center(self, c)
        seen.append((word, to_center(comp.WordTable(self.gen_set), c)))
        return word

    def spy_pair(self, c1, c2):
        word = pair(self, c1, c2)
        seen.append((word, pair(comp.WordTable(self.gen_set), c1, c2)))
        return word
    monkeypatch.setattr(comp.WordTable, "to_center", spy_to_center)
    monkeypatch.setattr(comp.WordTable, "pair", spy_pair)
    for gen_set in comp.GEN_SETS:
        comp.check_k_transitivity(1, gen_set, 4)
        for seed in range(3):
            comp.check_k_transitivity(2, gen_set, 4, sample=20,
                                      rng=random.Random(seed))
    # pair words call to_center for their first component
    assert len(seen) >= 2 * 85 + 2 * 3 * 20
    assert all(word == alone for word, alone in seen)


@pytest.mark.parametrize("k, gen_set, word_bound", [
    (1, "five", 30), (1, "commutator", 30), (1, "five", 6), (2, "five", 30),
    (2, "commutator", 30)])
def test_reports_equal_the_per_component_reference(k, gen_set, word_bound):
    """check_k_transitivity at denominator 4 and depth 2 against a loop
    that solves each tuple alone and checks it with the Fraction act; a
    word bound of 6 fails the 40 components whose words cost 7 or 8."""
    kw = {"sample": 40} if k == 2 else {}
    rep = comp.check_k_transitivity(k, gen_set, 4, word_bound,
                                    rng=random.Random(7), **kw)
    assert len(rep["failures"]) == (40 if word_bound == 6 else 0)
    assert rep == reference.check_k_transitivity(
        k, gen_set, 4, word_bound, rng=random.Random(7), **kw)


def test_commutator_pair_report_is_exhaustive_at_denominator_4():
    rep = comp.check_k_transitivity(2, "commutator", 4)
    assert rep["ok"] and rep["checked"] == 85 * 84 == 7140


def test_commutator_pair_witnesses_lie_in_the_commutator_subgroup():
    comps = comp.enumerate_components(8, 2)
    words = comp.WordTable("commutator")
    for c1, c2 in comp.ordered_pairs(comps, 20, random.Random(22)):
        word = words.pair(c1, c2)
        assert comp.epsilon_sum(word) == 0
        assert is_in_commutator(evaluate_word(table(), word))


def test_five_generator_pair_words_fail_the_commutator_report(monkeypatch):
    """Five-generator witnesses in a commutator k=2 report fail exactly
    where their epsilon-exponent sum is not 0, although they move the
    pair where it should go."""
    pair = comp.WordTable.pair
    five = comp.WordTable("five")
    monkeypatch.setattr(comp.WordTable, "pair",
                        lambda self, c1, c2: pair(five, c1, c2))
    picks = comp.ordered_pairs(comp.enumerate_components(4, 2), 40,
                               random.Random(5))
    outside = [(comp.format_path(c1), comp.format_path(c2))
               for c1, c2 in picks if comp.epsilon_sum(pair(five, c1, c2))]
    for gen_set, failures in (("commutator", outside), ("five", [])):
        rep = comp.check_k_transitivity(2, gen_set, 4, sample=40,
                                        rng=random.Random(5))
        assert rep["failures"] == failures
    assert len(outside) > 20


@pytest.mark.parametrize("k, sample, message", [
    (1, 5, "k=1 checks every component; sample is for k=2"),
    (2, 0, "sample must be between 1 and 6, the number of ordered pairs"),
    (2, -1, "sample must be between 1 and 6, the number of ordered pairs"),
    (2, 7, "sample must be between 1 and 6, the number of ordered pairs"),
    (3, None, "k must be 1 or 2"),
])
def test_vacuous_samples_are_rejected(k, sample, message):
    with pytest.raises(ValueError, match=message):
        comp.check_k_transitivity(k, "five", 2, sample=sample,
                                  rng=random.Random(0))


def test_vacuous_bounds_are_rejected():
    with pytest.raises(ValueError, match="word_bound must be at least 0"):
        comp.check_k_transitivity(1, "five", 2, word_bound=-1)
    with pytest.raises(ValueError, match="word_bound must be at least 0"):
        comp.check_k_transitivity(2, "five", 2, word_bound=-5)
    # denominator 1, or depth 0, enumerates the central component alone
    for max_den, max_depth in ((1, 2), (4, 0)):
        with pytest.raises(ValueError, match="k=2 needs at least two "
                           "components; there is only the central one"):
            comp.check_k_transitivity(2, "five", max_den, max_depth=max_depth,
                                      sample=1, rng=random.Random(0))
    assert comp.check_k_transitivity(1, "five", 1)["checked"] == 1


@pytest.mark.parametrize("gen_set", ["theta", "stab", "foo", "fixing"])
def test_unknown_generator_sets_are_rejected(gen_set):
    """Only "five" and "commutator" are generator sets; the solver's
    other move kinds and table keys are not."""
    p = ((F(1, 4), H),)
    for call in (lambda: comp.check_k_transitivity(1, gen_set, 2),
                 lambda: comp.solve_to_center(p, gen_set),
                 lambda: comp.solve_to_center((), gen_set),
                 lambda: comp.solve_to_center_fixing_center(p, gen_set),
                 lambda: comp.solve_pair((), p, gen_set),
                 lambda: comp.WordTable(gen_set),
                 lambda: comp.word_cost([("a", 1)], gen_set)):
        with pytest.raises(ValueError, match="unknown generator set %r: "
                           "use 'five' or 'commutator'" % gen_set):
            call()


def test_a_full_sample_checks_every_pair():
    rep = comp.check_k_transitivity(2, "five", 2, sample=6,
                                    rng=random.Random(0))
    assert rep["ok"] and rep["checked"] == 6


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
