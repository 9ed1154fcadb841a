import random

import pytest
from hypothesis import given, settings, strategies as st

from airframe import diagram
from airframe.diagram import (GraphPairDiagram, commutator, evaluate_word,
                              identity, reversal_matching)
from airframe.systems import airplane, airplane_generators
import reference_diagram as reference


NAMES = list("abgde")


def random_word(rng, max_len):
    return [(rng.choice(NAMES), rng.choice([1, -1]))
            for _ in range(rng.randrange(1, max_len + 1))]


words = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from([1, -1])),
    min_size=0, max_size=6)


def test_reversal_matchings(A):
    red = reversal_matching(A.rules["red"])
    assert red == {0: (1, True), 1: (0, True), 2: (2, False)}
    blue = reversal_matching(A.rules["blue"])
    # the half turn: the two arcs of the midpoint circle swap straight
    assert blue == {0: (3, False), 1: (2, False), 2: (1, False),
                    3: (0, False)}


def test_generators_validate(gens):
    for f in gens.values():
        assert f.validate()


def test_validate_rejects_red_swap_with_straight_flags(A):
    f = GraphPairDiagram.from_strings(A, [
        ("rT", "rB"), ("rB", "rT"), ("bL", "bL"), ("bR", "bR")])
    assert not f.validate()


def test_from_json_rejects_invalid_diagrams(A):
    colors = {"system": "airplane",
              "map": {"bL": "rT", "rT": "bL", "rB": "rB", "bR": "bR"}}
    leaves = {"system": "airplane",
              "map": {"bL": "bL", "rT": "rT", "rB": "rB"}}
    for data in (colors, leaves):
        with pytest.raises(ValueError):
            GraphPairDiagram.from_json(A, data)
    alpha = airplane_generators()["a"]
    good = alpha.to_json()
    # one "~" marks a reversed pair; a second is part of no leaf name
    twice = {"system": "airplane",
             "map": {a: "~" + b if b.startswith("~") else b
                     for a, b in good["map"].items()}}
    with pytest.raises(ValueError):
        GraphPairDiagram.from_json(A, twice)
    # the leaf lists, when present, must be the map's
    for key, bad in (("domain", ["junk"]), ("range", ["junk"]),
                     ("domain", good["domain"][::-1]),
                     ("range", good["range"][:-1])):
        with pytest.raises(ValueError, match="%s does not match" % key):
            GraphPairDiagram.from_json(A, dict(good, **{key: bad}))
    assert GraphPairDiagram.from_json(A, good).equals(alpha)


@pytest.mark.parametrize("data, message", [
    (["airplane", {}], "object with a system and a map"),
    ({"map": {"bL": "bL"}}, "object with a system and a map"),
    ({"system": "airplane"}, "object with a system and a map"),
    ({"system": "airplane", "map": [["bL", "bL"]]}, "object with a system"),
    ({"system": "airplane", "map": {"bL": 3}}, "must be leaf names"),
    ({"system": "airplane", "map": {3: "bL"}}, "must be leaf names"),
], ids=["not-an-object", "no-system", "no-map", "map-a-list",
        "value-not-a-string", "key-not-a-string"])
def test_from_json_rejects_json_of_the_wrong_shape(A, data, message):
    with pytest.raises(ValueError, match=message):
        GraphPairDiagram.from_json(A, data)


def test_expand_then_reduce_is_identity_map(gens):
    f = gens["b"]
    g = f.expand_pair(("rT", ())).expand_pair(("bR", ()))
    assert g.validate()
    assert g.reduce().equals(f)


@settings(max_examples=40, deadline=None)
@given(words, st.integers(0, 2 ** 30))
def test_reduction_canonical_under_schedules(word, seed):
    gens = _table()
    f = evaluate_word(gens, word)
    rng = random.Random(seed)
    g = f
    for _ in range(3):
        a = rng.choice(sorted(g.mapping))
        g = g.expand_pair(a)
    r1 = g.reduce()
    r2 = reference.reduce(g, random.Random(seed + 1))
    assert r1.equals(f) and r2.equals(f)
    assert r1.mapping == r2.mapping


_TABLE = None


def _table():
    global _TABLE
    if _TABLE is None:
        _TABLE = airplane_generators()
    return _TABLE


@settings(max_examples=25, deadline=None)
@given(words, words)
def test_composition_word_concatenation(w1, w2):
    gens = _table()
    lhs = evaluate_word(gens, w1).compose(evaluate_word(gens, w2))
    rhs = evaluate_word(gens, w1 + w2)
    assert lhs.equals(rhs)


@settings(max_examples=25, deadline=None)
@given(words)
def test_inverse_cancels(w):
    gens = _table()
    f = evaluate_word(gens, w)
    assert f.compose(f.invert()).is_identity()
    assert f.invert().compose(f).is_identity()


def test_json_roundtrip(gens, A):
    for f in gens.values():
        back = GraphPairDiagram.from_json(A, f.to_json())
        assert back.equals(f)


def test_power_is_repeated_compose(gens):
    rng = random.Random(17)
    for f in [gens["e"]] + [evaluate_word(gens, random_word(rng, 12))
                            for _ in range(3)]:
        p = identity(f.system)
        for k in range(10):
            assert f.power(k).equals(p)
            assert f.power(-k).equals(p.invert())
            p = reference.compose(p, f)


def test_deep_diagrams_reduce_and_compose(gens):
    # a^1500 is 1500 levels deep: reduction and products must not recurse
    f = gens["a"].power(1500)
    rng = random.Random(1500)
    g = f
    for a in rng.sample(sorted(f.mapping), 20):
        g = g.expand_pair(a)
    assert len(g.mapping) > len(f.mapping)
    assert g.reduce().mapping == f.mapping
    assert f.compose(gens["a"].power(-1500)).is_identity()


def test_reversal_matching_runs_once_per_rule(monkeypatch, gens):
    calls = []
    search = diagram.reversal_matching
    monkeypatch.setattr(diagram, "reversal_matching",
                        lambda rule: calls.append(rule) or search(rule))
    diagram._reversal.cache_clear()
    evaluate_word(gens, [("a", 1), ("d", -1), ("e", 1), ("b", 1)] * 8)
    assert calls and len(calls) == len(set(calls))


def test_each_letter_is_numbered_once(monkeypatch):
    built = []
    number = diagram._Factor
    monkeypatch.setattr(diagram, "_Factor",
                        lambda g: built.append(g) or number(g))
    table = airplane_generators()
    word = [("a", 1), ("d", -1), ("e", 1), ("b", 1)] * 8
    first = evaluate_word(table, word)
    assert built
    built.clear()
    assert evaluate_word(table, word).mapping == first.mapping
    assert not built


def test_products_reject_mixed_systems(gens, bgens):
    a, x = gens["a"], bgens["a"]
    table = {"a": a, "x": x}
    for product in (lambda: a.conjugate(x), lambda: commutator(a, x),
                    lambda: evaluate_word(table, [("x", 1)]),
                    lambda: evaluate_word(table, [("a", 1), ("x", -1)]),
                    # checked before x x^-1 cancels
                    lambda: evaluate_word(table, [("x", 1), ("x", -1)])):
        with pytest.raises(ValueError, match="different systems"):
            product()


def test_words_fail_cleanly_on_a_bad_table(gens):
    """A name the table lacks, or an empty table, is a ValueError that
    says so, not a bare KeyError or StopIteration."""
    with pytest.raises(ValueError, match="unknown generator 'q'"):
        evaluate_word(gens, [("a", 1), ("q", 2)])
    for word in ([("a", 1)], []):
        with pytest.raises(ValueError, match="empty generator table"):
            evaluate_word({}, word)


def test_power_and_order(gens):
    def order_up_to(f, n):
        return next((k for k in range(1, n + 1) if f.power(k).is_identity()),
                    None)
    db = gens["d"].compose(gens["b"])
    assert order_up_to(db, 5) == 3
    assert order_up_to(gens["d"], 3) == 2
    assert order_up_to(gens["e"], 6) is None


def test_commutator_of_commuting_elements(gens):
    assert commutator(gens["b"], gens["b"]).is_identity()


def test_identity_props(A, gens):
    e = identity(A)
    assert e.is_identity()
    assert e.compose(gens["a"]).equals(gens["a"])
