import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from airframe import trees
from airframe.diagram import evaluate_word

F = Fraction
H = F(1, 2)


def test_membership():
    assert trees.frak_c_membership(()) == ()
    assert trees.frak_c_membership(((H, H),)) == ((H, 1),)
    assert trees.frak_c_membership(((F(1, 4), F(7, 8)),)) == ((F(1, 4), 3),)
    assert trees.frak_c_membership(((F(0), F(1, 4)),)) is None
    assert trees.frak_c_membership(((F(0), H), (F(1, 4), F(5, 8)))) is None


def test_moves_roundtrip():
    v = ((F(1, 4), 2), (F(3, 8), 1), (F(7, 8), 3))
    assert trees.moves_to_vertex(trees.vertex_moves(v)) == v
    with pytest.raises(ValueError):
        trees.moves_to_vertex((trees.INC,))


def test_vertex_path_conversion():
    v = ((F(1, 4), 2),)
    assert trees.vertex_to_path(v) == ((F(1, 4), F(3, 4)),)
    assert trees.frak_c_membership(trees.vertex_to_path(v)) == v


def test_airplane_root_actions(gens):
    assert trees.airplane_tree_action(gens, [], ()) == ()
    assert trees.airplane_tree_action(gens, [("b", 1)], ()) == ()
    img = trees.airplane_tree_action(gens, [("a", 1)], ())
    assert img == ((F(0), 1),)
    with pytest.raises(ValueError):
        trees.airplane_tree_action(gens, [("e", 1)], ())


def test_frak_c_invariance(gens):
    rng = random.Random(21)
    verts = trees.truncated_vertices(2, 4)
    for _ in range(25):
        word = [(rng.choice("abgd"), rng.choice([1, -1]))
                for _ in range(4)]
        v = trees.moves_to_vertex(rng.choice(verts))
        trees.airplane_tree_action(gens, word, v)  # must not raise


def test_basilica_roundtrip_and_root_actions(bgens):
    assert trees.basilica_vertex(None) == ()
    assert trees.basilica_vertex(("lp", ())) == (F(0),)
    assert trees.basilica_vertex(("lq", ())) == (H,)
    assert trees.vertex_to_loop((F(0), H)) == ("lp", (1,))
    assert trees.basilica_tree_action(bgens, [], (H,)) == (H,)
    # b_B fixes the central circle, a_B moves it to the loop at 1/2
    assert trees.basilica_tree_action(bgens, [("b", 1)], ()) == ()
    assert trees.basilica_tree_action(bgens, [("a", 1)], ()) == (H,)


def test_adjacency_preserved(gens, bgens):
    rng = random.Random(22)
    verts = trees.truncated_vertices(2, 4)
    for _ in range(10):
        word = [(rng.choice("abgd"), rng.choice([1, -1]))
                for _ in range(3)]
        moves = rng.choice([m for m in verts if m])
        parent_v = trees.moves_to_vertex(moves[:-1])
        child_v = trees.moves_to_vertex(moves)
        pi = trees.airplane_tree_action(gens, word, parent_v)
        ci = trees.airplane_tree_action(gens, word, child_v)
        pm, cm = trees.vertex_moves(pi), trees.vertex_moves(ci)
        assert abs(len(pm) - len(cm)) == 1
        shorter, longer = sorted([pm, cm], key=len)
        assert longer[:len(shorter)] == shorter


def test_identification_is_a_bijection_on_truncation():
    seen = set()
    for moves in trees.truncated_vertices(2, 8):
        bv = trees.identify(moves)
        assert bv not in seen
        seen.add(bv)
        assert trees.basilica_vertex(trees.vertex_to_loop(bv)) == bv


def test_intertwine_small():
    rep = trees.intertwine_check(1, 4)
    assert rep["ok"] and rep["checked"] == 4 * (1 + 4)


SWAPPED = [("a", "b"), ("b", "a"), ("g", "c"), ("d", "d")]


def test_intertwine_negative_control():
    rep = trees.intertwine_check(1, 4, pairing=SWAPPED)
    assert not rep["ok"] and rep["mismatches"]


@pytest.mark.parametrize("pairing", [None, SWAPPED])
def test_intertwine_matches_per_check_tree_actions(gens, bgens, pairing):
    # every (vertex, pair) recomputed through the public tree actions
    checked, mismatches = 0, []
    for moves in trees.truncated_vertices(2, 8):
        for aname, bname in pairing or trees.CANONICAL_PAIRING:
            checked += 1
            left = trees.identify(trees.vertex_moves(trees.airplane_tree_action(
                gens, [(aname, 1)], trees.moves_to_vertex(moves))))
            right = trees.basilica_tree_action(bgens, [(bname, 1)],
                                               trees.identify(moves))
            if left != right:
                mismatches.append({
                    "vertex": [str(m) for m in moves],
                    "pair": "%s~%s" % (aname, bname),
                    "airplane_image": [str(m) for m in left],
                    "basilica_image": [str(m) for m in right],
                })
    rep = trees.intertwine_check(2, 8, pairing=pairing)
    assert rep["checked"] == checked == 65 * 4
    assert rep["mismatches"] == mismatches
    assert rep["ok"] == (pairing is None)


def test_intertwine_rejects_vacuous_bounds():
    for depth, bound in [(1, 0), (1, -4), (-1, 4), (0, 3), (1, 6)]:
        with pytest.raises(ValueError):
            trees.intertwine_check(depth, bound)
    rep = trees.intertwine_check(1, 4, pairing=[])
    assert rep["ok"] and rep["checked"] == 0


def test_faithfulness_sampled(gens):
    rng = random.Random(23)
    verts = [trees.moves_to_vertex(m) for m in trees.truncated_vertices(2, 4)]
    for _ in range(10):
        word = [(rng.choice("abgd"), rng.choice([1, -1]))
                for _ in range(rng.randrange(1, 4))]
        from airframe.diagram import evaluate_word
        if evaluate_word(gens, word).is_identity():
            continue
        assert any(trees.airplane_tree_action(gens, word, v) != v
                   for v in verts)


# --- the integer comparison against the Fraction one ------------------------

def located(moves):
    """The Airplane red cell and the Basilica cell of a vertex, as
    intertwine_check locates them."""
    red = trees.comp.red_cell(trees.vertex_to_path(trees.moves_to_vertex(moves)))
    return red, trees.geometry.cell_at(trees.BASILICA, trees.identify(moves))


def comparisons(f, g, moves):
    """(the Fraction chains, the integer chains read as Fractions): the
    identified Airplane image and the Basilica image of one vertex."""
    red, cell = located(moves)
    old = (trees.identify(trees.vertex_moves(trees._airplane_image(f, red))),
           trees.basilica_vertex(g.leaf_image(cell)))
    new = (trees._identified_image(f, red), trees._basilica_image(g, cell))
    return old, tuple(tuple(F(n, d) for n, d in c) for c in new)


def verdicts(f, g, moves):
    (old_left, old_right), (left, right) = comparisons(f, g, moves)
    assert (left, right) == (old_left, old_right)
    return old_left == old_right, left == right


@functools.cache
def vertices(depth, bound):
    return trees.truncated_vertices(depth, bound)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_integer_comparison_agrees_with_fractions(gens, bgens, data):
    depth = data.draw(st.integers(0, 3))
    bound = data.draw(st.sampled_from([1, 2, 4, 8, 16]))
    moves = data.draw(st.sampled_from(vertices(depth, bound)))
    word = data.draw(st.lists(st.tuples(st.sampled_from("abgd"),
                                        st.sampled_from([1, -1])),
                              max_size=6))
    paired = dict(trees.CANONICAL_PAIRING)
    f = evaluate_word(gens, word)
    g = evaluate_word(bgens, [(paired[n], e) for n, e in word])
    old, new = verdicts(f, g, moves)
    assert old == new


def test_integer_comparison_sees_a_swapped_pair(gens, bgens):
    # under SWAPPED, alpha meets b_B: alpha moves the center out, b_B
    # fixes it
    f, g = gens["a"], bgens[dict(SWAPPED)["a"]]
    assert verdicts(f, g, ()) == (False, False)


def outcome(image, f, red):
    try:
        return image(f, red)
    except (AssertionError, ValueError) as ex:
        return type(ex), str(ex)


@pytest.mark.parametrize("word", [[("e", -1)], [("e", -2)],
                                  [("a", 1), ("e", -1)]])
def test_integer_image_fails_as_the_fraction_one(gens, word):
    # these words carry some vertices out of the midpoint-chain tree;
    # both routes raise the same error there and agree elsewhere
    f = evaluate_word(gens, word)
    failures = 0
    for moves in vertices(2, 4):
        red, _ = located(moves)
        old = outcome(trees._airplane_image, f, red)
        new = outcome(trees._identified_image, f, red)
        if old and isinstance(old[0], type):
            failures += 1
            assert new == old
        else:
            assert tuple(F(n, d) for n, d in new) == \
                trees.identify(trees.vertex_moves(old))
    assert failures
