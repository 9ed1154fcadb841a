"""The text forms against the references of reference_text.py: to_json
bytes (key order included) and the realized graphs' DOT on random words
over every table of test_properties, on unreduced diagrams and on spines
a thousand levels deep, and over a rule of twelve children; the
tokenizer's tokens or error, and the parser's tree or error, on random
strings."""

import json
import random

from hypothesis import given, settings, strategies as st

from airframe.core import ReplacementSystem, realize_graph
from airframe.diagram import evaluate_word, identity
from airframe.words import WordSyntaxError, parse_word, tokenize
import reference_text as reference
from test_properties import G, TABLES


def assert_same_text(f, sides=("domain", "range")):
    assert json.dumps(f.to_json()) == json.dumps(reference.to_json(f))
    for side in (getattr(f, name) for name in sides):
        assert (realize_graph(side).to_dot()
                == reference.realize_graph(side).to_dot())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(TABLES)), st.data())
def test_text_of_words_and_unreduced_diagrams(system, data):
    table = TABLES[system]
    f = evaluate_word(table, data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(table)), st.sampled_from([1, -1])),
        max_size=40)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 30)))
    for _ in range(rng.randrange(13)):
        f = f.expand_pair(rng.choice(sorted(f.mapping)))
    assert_same_text(f)


@settings(max_examples=2, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abgde"),
                          st.sampled_from([1, -1])), max_size=8),
       st.integers(0, 2 ** 30))
def test_text_of_a_spine_a_thousand_levels_deep(word, seed):
    # far past the interpreter's recursion limit; both sides are spines,
    # and the reference spells each address from the root, so one side's
    # graph is checked
    f = evaluate_word(G, word)
    system = f.system
    rng = random.Random(seed)
    a = rng.choice(sorted(f.mapping))
    for _ in range(1000 + rng.randrange(50)):
        f = f.expand_pair(a)
        arity = len(system.child_colors[system.color_of(a)])
        a = (a[0], a[1] + (rng.randrange(arity),))
    assert max(len(path) for _, path in f.mapping) >= 1000
    assert_same_text(f, sides=["domain"])


def test_text_of_a_rule_of_twelve_children():
    # child indices past 9 take the speller's slow suffix
    path = [["e%d" % i, "x", "v%d" % i, "v%d" % (i + 1)] for i in range(12)]
    path[0][2], path[-1][3] = "i", "t"
    system = ReplacementSystem.from_json(
        {"name": "path12", "base": [["e", "x", "u", "w"]],
         "rules": {"x": path}})
    f = identity(system)
    for a in [("e", ()), ("e", (11,)), ("e", (11, 10)), ("e", (3,)),
              ("e", (11, 10, 9))]:
        f = f.expand_pair(a)
    assert "e.11-10-11" in f.to_json()["domain"]
    assert_same_text(f)


WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]
CHARS = st.one_of(
    st.sampled_from(list("abcdefghijklmnopqrstuvwxyz0123456789()[],'^-#")
                    + WHITESPACE),
    st.characters(categories=["Lu", "Ll", "Lo", "Nd"], min_codepoint=128))


def scanned(tokenizer, src):
    try:
        return tokenizer(src)
    except WordSyntaxError as e:
        return str(e), e.pos


@settings(max_examples=500, deadline=None)
@given(st.lists(CHARS, max_size=30).map("".join))
def test_tokenize_matches_the_reference(src):
    assert scanned(tokenize, src) == scanned(reference.tokenize, src)


TOKENS = (list("abgdeq0123456789-()[],'^ \t") + ["alpha", "x1", "-1", "-12",
          "4097", "(" * 60, ")" * 60, "'" * 60, "^-2"])
# well-formed words, to which mutated() adds stray tokens
WORDS = st.recursive(
    st.sampled_from(["a", "b", "alpha", "q"]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(" ".join),
        inner.map("(%s)'".__mod__),
        st.tuples(inner, st.integers(-3, 3)).map("(%s)^%d".__mod__),
        st.tuples(inner, inner).map("(%s)^(%s)".__mod__),
        st.tuples(inner, inner).map("[%s, %s]".__mod__)),
    max_leaves=12)


def mutated(word_and_edits):
    word, edits = word_and_edits
    for i, tok in edits:
        i %= len(word) + 1
        word = word[:i] + tok + word[i:]
    return word


def parsed(parse, src):
    try:
        return parse(src)
    except WordSyntaxError as e:
        return str(e), e.pos


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=40).map("".join),
    st.tuples(WORDS, st.lists(st.tuples(st.integers(0, 200),
                                        st.sampled_from(TOKENS)),
                              max_size=2)).map(mutated)))
def test_parse_word_matches_the_reference(src):
    assert parsed(parse_word, src) == parsed(reference.parse_word, src)
