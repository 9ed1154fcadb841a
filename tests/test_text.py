"""The text forms against the references of reference_text.py: to_json
bytes (key order included) and the realized graphs' DOT on random words
over every table of test_properties, on unreduced diagrams and on spines
a thousand levels deep; the tokenizer's tokens or error on random
strings."""

import json
import random

from hypothesis import given, settings, strategies as st

from airframe.core import realize_graph
from airframe.diagram import evaluate_word
from airframe.words import WordSyntaxError, tokenize
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
