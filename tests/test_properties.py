"""Group axioms and reduction canonicity on random words of up to 20
letters over the Airplane generators, word evaluation against the
letter-by-letter product over all four generator tables, powers,
conjugates and commutators against their compose chains, leaf images
against pair expansion, the derivative D on unreduced diagrams and
under compose, and the parser on arbitrary token strings."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from airframe import analysis, geometry
from airframe.core import child, parent
from airframe.diagram import (GraphPairDiagram, commutator, evaluate_word,
                              identity)
from airframe.systems import (airplane_generators, basilica_generators,
                              circle_generators, interval_generators)
from airframe.words import WordSyntaxError, parse_word

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


@pytest.mark.parametrize("system", sorted(TABLES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_are_their_compose_chains(system, data):
    table = TABLES[system]
    letters = st.tuples(st.sampled_from(sorted(table)),
                        st.sampled_from([1, -1]))
    f, g = (evaluate_word(table, data.draw(st.lists(letters, max_size=12)))
            for _ in range(2))
    for _ in range(data.draw(st.integers(0, 2))):  # unreduced inputs too
        f = f.expand_pair(data.draw(st.sampled_from(sorted(f.mapping))))
    k = data.draw(st.integers(-6, 6))
    product = identity(f.system)
    for _ in range(abs(k)):
        product = product.compose(f if k > 0 else f.invert())
    assert f.power(k).to_json() == product.to_json()
    assert (f.conjugate(g).to_json()
            == g.invert().compose(f).compose(g).to_json())
    assert (commutator(f, g).to_json() == f.compose(g).compose(
        f.invert()).compose(g.invert()).to_json())


def expanded_leaf_image(f, a):
    """The reference for leaf_image: expand pairs until a is a node of the
    domain tree, then follow child 0 down to a leaf."""
    while not (f.domain.is_leaf(a) or a in f.domain.internal):
        p = a
        while not f.domain.is_leaf(p):
            p = parent(p)
        f = f.expand_pair(p)
    while a in f.domain.internal:
        a = child(a, 0)
    return f.mapping[a][0]


@pytest.mark.parametrize("system", ["airplane", "airplane+flip", "basilica"])
def test_leaf_image_is_the_image_after_expansion(system):
    table = TABLES[system]
    names = sorted(table)
    rng = random.Random(system)
    kinds = set()
    for _ in range(40):
        f = evaluate_word(table, [(rng.choice(names), rng.choice([1, -1]))
                                  for _ in range(rng.randrange(13))])
        child_colors = f.system.child_colors
        for _ in range(25):
            # a random cell up to 8 levels deep
            eid, color, _, _ = rng.choice(f.system.base.edges)
            a = (eid, ())
            for _ in range(rng.randrange(9)):
                i = rng.randrange(len(child_colors[color]))
                a, color = child(a, i), child_colors[color][i]
            kinds.add(a in f.domain.internal)
            assert f.leaf_image(a) == expanded_leaf_image(f, a)
    assert kinds == {True, False}


def holds_tip(system, a):
    """Is a's target the tip of a ray?"""
    color, _, t, d, _ = geometry.walk(system, a)
    return color == "blue" and t == d


@settings(max_examples=100, deadline=None)
@given(words, st.integers(0, 2 ** 30))
def test_derivative_ignores_expanded_pairs(w, seed):
    # D is read off unreduced diagrams: expand a pair whose domain leaf
    # holds a ray tip, then random pairs
    f = evaluate_word(G, w)
    rng = random.Random(seed)
    g = f.expand_pair(rng.choice([a for a in sorted(f.mapping)
                                  if holds_tip(f.system, a)]))
    for _ in range(rng.randrange(8)):
        g = g.expand_pair(rng.choice(sorted(g.mapping)))
    assert analysis.global_derivative(g) == analysis.global_derivative(f)
    assert analysis.is_in_E(g) == analysis.is_in_E(f)


@settings(max_examples=100, deadline=None)
@given(words, words)
def test_log2_derivative_is_additive(w1, w2):
    f, g = evaluate_word(G, w1), evaluate_word(G, w2)
    assert analysis.abelianization_image(f.compose(g)) == \
        analysis.abelianization_image(f) + analysis.abelianization_image(g)


TOKENS = list("abgde0123456789-()[],'^ ") + ["alpha"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))
def test_parser_returns_a_word_or_a_located_error(src):
    try:
        expr = parse_word(src)
    except WordSyntaxError as e:
        assert 0 <= e.pos <= len(src)
    else:
        assert isinstance(expr, tuple)
