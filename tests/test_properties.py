"""Group axioms and reduction canonicity on random words of up to 20
letters over the Airplane generators, word evaluation against the
letter-by-letter product over all four generator tables, inserted
inverse pairs that leave to_json's bytes alone, powers,
conjugates and commutators against their compose chains, leaf images
against pair expansion, component images through unreduced diagrams,
the derivative D on unreduced diagrams and under compose, and the
parser on arbitrary token strings."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from airframe import analysis, components as comp, geometry, trees
from airframe.circularize import phi_diagram
from airframe.core import child, parent
from airframe.diagram import (GraphPairDiagram, commutator, evaluate_word,
                              identity)
from airframe.systems import (airplane_generators, basilica_generators,
                              circle_generators, interval_generators)
from airframe.words import WordSyntaxError, parse_word
import reference_diagram as reference

G = airplane_generators()
# The reflection in the horizontal line pairs red cells reversed, and the
# red rule's reversal matching reverses children; no generator does both.
FLIP = GraphPairDiagram.from_strings(G["a"].system, [
    ("rT", "rB", True), ("rB", "rT", True), ("bL", "bL"), ("bR", "bR")])
TABLES = {"airplane": G, "airplane+flip": dict(G, f=FLIP),
          "basilica": basilica_generators(),
          "interval": interval_generators(), "circle": circle_generators()}


def test_phi_refuses_a_reversed_red_pair():
    # the cycle image of FLIP, or of any expansion of it, would turn its
    # red edges end for end
    for f in (FLIP, FLIP.expand_pair(("rT", ())),
              FLIP.expand_pair(("bL", ()))):
        with pytest.raises(ValueError) as err:
            phi_diagram(f)
        assert "orientation" in str(err.value)


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
    r = reference.reduce(g, rng)
    assert r.mapping == f.mapping
    assert g.reduce().mapping == r.mapping
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
        product = reference.compose(product, table[name].power(exp))
    assert f.to_json() == product.to_json()
    assert f.domain == product.domain and f.range == product.range
    assert f.reduce() is f


@pytest.mark.parametrize("system", sorted(TABLES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inserted_inverse_pairs_leave_the_bytes_alone(system, data):
    # evaluate_word cancels x x^-1; the letter-by-letter compose chain of
    # the longer word does not, and reduces to the same diagram
    table = TABLES[system]
    letters = st.tuples(st.sampled_from(sorted(table)),
                        st.sampled_from([1, -1]))
    w = data.draw(st.lists(letters, max_size=20))
    longer = list(w)
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(longer)))
        name, exp = data.draw(letters)
        longer[i:i] = [(name, exp), (name, -exp)]
    text = json.dumps(evaluate_word(table, w).to_json())
    assert json.dumps(evaluate_word(table, longer).to_json()) == text
    chain = identity(next(iter(table.values())).system)
    for name, exp in longer:
        chain = chain.compose(table[name].power(exp))
    assert json.dumps(chain.to_json()) == text


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
        product = reference.compose(product, f if k > 0 else f.invert())
    assert f.power(k).to_json() == product.to_json()
    compose = reference.compose
    assert (f.conjugate(g).to_json()
            == compose(compose(g.invert(), f), g).to_json())
    assert (commutator(f, g).to_json() == compose(compose(compose(
        f, g), f.invert()), g.invert()).to_json())


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


COMPONENTS = comp.enumerate_components(8, 2)
LOOPS = [trees.vertex_to_loop(trees.identify(v))
         for v in trees.truncated_vertices(2, 8)]


@pytest.mark.parametrize("system", ["airplane", "airplane+flip", "basilica"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_components_map_alike_through_expanded_diagrams(system, data):
    # map_component and map_basilica_component take unreduced diagrams
    table = TABLES[system]
    f = evaluate_word(table, data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(table)), st.sampled_from([1, -1])),
        max_size=12)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 30)))
    g = f
    for _ in range(rng.randint(1, 30)):
        g = g.expand_pair(rng.choice(sorted(g.mapping)))
    if system == "basilica":
        for loop in rng.sample(LOOPS, 10):
            assert (trees.map_basilica_component(g, loop)
                    == trees.map_basilica_component(f, loop))
    else:
        for c in rng.sample(COMPONENTS, 10):
            assert comp.map_component(g, c) == comp.map_component(f, c)


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
