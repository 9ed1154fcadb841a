"""Group axioms and reduction canonicity on random words of up to 20
letters over the Airplane generators, and word evaluation against the
letter-by-letter product over all four generator tables."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from airframe.diagram import GraphPairDiagram, evaluate_word, identity
from airframe.systems import (airplane_generators, basilica_generators,
                              circle_generators, interval_generators)

G = airplane_generators()
# The reflection in the horizontal line pairs red cells reversed, and the
# red rule's reversal matching reverses children; no generator does both.
FLIP = GraphPairDiagram.from_strings(G["a"].system, [
    ("rT", "rB", True), ("rB", "rT", True), ("bL", "bL"), ("bR", "bR")])
TABLES = {"airplane": G, "airplane+flip": dict(G, f=FLIP),
          "basilica": basilica_generators(),
          "interval": interval_generators(), "circle": circle_generators()}

words = st.lists(
    st.tuples(st.sampled_from("abgde"), st.sampled_from([1, -1])),
    min_size=0, max_size=20)


@settings(max_examples=100, deadline=None)
@given(words, words, words)
def test_compose_is_associative(w1, w2, w3):
    f, g, h = (evaluate_word(G, w) for w in (w1, w2, w3))
    assert f.compose(g).compose(h).equals(f.compose(g.compose(h)))


@settings(max_examples=100, deadline=None)
@given(words)
def test_inverse_and_identity(w):
    f = evaluate_word(G, w)
    e = identity(f.system)
    assert f.compose(f.invert()).is_identity()
    assert e.compose(f).equals(f) and f.compose(e).equals(f)


@settings(max_examples=100, deadline=None)
@given(words, st.integers(0, 2 ** 30))
def test_reduce_is_canonical_under_random_schedules(w, seed):
    f = evaluate_word(G, w)
    rng = random.Random(seed)
    g = f
    for _ in range(rng.randint(1, 12)):
        g = g.expand_pair(rng.choice(sorted(g.mapping)))
    r = g.reduce(rng)
    assert r.mapping == f.mapping
    assert r.domain == f.domain and r.range == f.range


@pytest.mark.parametrize("system", sorted(TABLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_word_is_the_letter_by_letter_product(system, data):
    table = TABLES[system]
    w = data.draw(st.lists(st.tuples(st.sampled_from(sorted(table)),
                                     st.sampled_from([1, -1])),
                           max_size=60))
    f = evaluate_word(table, w)
    product = identity(next(iter(table.values())).system)
    for name, exp in w:
        product = product.compose(table[name].power(exp))
    assert f.to_json() == product.to_json()
    assert f.domain == product.domain and f.range == product.range
    assert f.reduce() is f
