"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py`; each criterion also
prints its own "criterion N (...): PASS/FAIL" line.
"""

import functools
import random
from fractions import Fraction

from airframe import analysis, circularize as cz, components as comp, trees
from airframe.core import Expansion, parent
from airframe.diagram import commutator, evaluate_word
from airframe.systems import (PLMap, airplane, airplane_generators,
                              interval_generators)
from airframe.words import parse_word, flatten
import reference_diagram as reference

F = Fraction
H = F(1, 2)
NAMES = list("abgde")

A = airplane()
G = airplane_generators(A)


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print("criterion %d (%s): FAIL" % (n, label))
                raise
            print("criterion %d (%s): PASS" % (n, label))
        return wrapper
    return deco


def rand_word(rng, max_len, names=NAMES):
    return [(rng.choice(names), rng.choice([1, -1]))
            for _ in range(rng.randrange(0, max_len + 1))]


@criterion(1, "reduction canonicity")
def test_c01_reduction_canonicity():
    rng = random.Random(101)
    for _ in range(500):
        f = evaluate_word(G, rand_word(rng, 10))
        g = f
        for _ in range(rng.randrange(0, 6)):
            g = g.expand_pair(rng.choice(sorted(g.mapping)))
        r1 = reference.reduce(g, random.Random(rng.randrange(2 ** 30)))
        r2 = reference.reduce(g, random.Random(rng.randrange(2 ** 30)))
        assert r1.domain.internal == r2.domain.internal
        assert r1.mapping == r2.mapping
        assert r1.equals(f)
        assert g.reduce().mapping == r1.mapping


@criterion(2, "exact generator identities")
def test_c02_exact_identities():
    a, b, g, d, e = (G[n] for n in "abgde")
    assert d.compose(b).power(3).is_identity()
    assert d.power(2).is_identity()
    assert commutator(e, d).compose(
        commutator(e.invert(), a.power(-2))).equals(a)
    assert b.conjugate(e).equals(b)
    assert g.conjugate(e).equals(g)
    for k in range(1, 6):
        assert commutator(d, e).power(k).equals(commutator(d, e.power(k)))


@criterion(3, "derivative homomorphism")
def test_c03_derivative_homomorphism():
    rng = random.Random(103)
    for _ in range(200):
        f = evaluate_word(G, rand_word(rng, 12))
        g = evaluate_word(G, rand_word(rng, 12))
        assert analysis.global_derivative(f.compose(g)) == \
            analysis.global_derivative(f) * analysis.global_derivative(g)
    for n in "abgd":
        assert analysis.global_derivative(G[n]) == 1
    assert abs(analysis.abelianization_image(G["e"])) == 1
    de = analysis.global_derivative(G["e"])
    for k in range(-6, 7):
        assert analysis.global_derivative(G["e"].power(k)) == de ** k


@criterion(4, "commutator subgroup characterization")
def test_c04_commutator_characterization():
    six = [G["a"], G["b"], G["g"], G["d"], commutator(G["d"], G["e"]),
           evaluate_word(G, flatten(parse_word("[e^-1, e^-1 a]")))]
    for f in six:
        assert analysis.global_derivative(f) == 1
    assert analysis.global_derivative(G["e"]) != 1
    rng = random.Random(104)
    for _ in range(100):
        f = evaluate_word(G, rand_word(rng, 8))
        assert analysis.is_in_commutator(f) == \
            (analysis.abelianization_image(f) == 0)


@criterion(5, "semidirect split")
def test_c05_semidirect_split():
    rng = random.Random(105)
    for _ in range(100):
        f = evaluate_word(G, rand_word(rng, 8))
        c, k = analysis.semidirect_split(f, G["e"])
        assert analysis.global_derivative(c) == 1
        assert c.compose(G["e"].power(k)).equals(f)


@criterion(6, "rigid stabilizer actions")
def test_c06_rigid_stabilizer_actions():
    assert analysis.induced_boundary_map(G["b"]).breaks == \
        [(F(0), F(0)), (H, F(1, 4)), (F(3, 4), H)]
    assert analysis.induced_boundary_map(G["g"]).breaks == \
        [(F(0), F(0)), (F(1, 4), F(1, 8)), (F(3, 8), F(1, 4)), (H, H)]
    assert analysis.induced_boundary_map(G["d"]) == \
        PLMap([(0, H)], circle=True)
    assert analysis.induced_hor_map(G["a"]).breaks == \
        [(F(0), F(0)), (F(1, 4), H), (H, F(3, 4)), (F(1), F(1))]
    assert analysis.induced_hor_map(G["e"]).breaks == \
        [(F(0), F(0)), (H, H), (F(5, 8), F(3, 4)), (F(3, 4), F(7, 8)),
         (F(1), F(1))]
    rng = random.Random(106)
    for _ in range(25):
        w1, w2 = rand_word(rng, 5, "bgd"), rand_word(rng, 5, "bgd")
        f, g = evaluate_word(G, w1), evaluate_word(G, w2)
        assert analysis.induced_boundary_map(f.compose(g)) == \
            analysis.induced_boundary_map(f).compose(
                analysis.induced_boundary_map(g))
    for _ in range(25):
        w1, w2 = rand_word(rng, 5, "ae"), rand_word(rng, 5, "ae")
        f, g = evaluate_word(G, w1), evaluate_word(G, w2)
        assert analysis.induced_hor_map(f.compose(g)) == \
            analysis.induced_hor_map(f).compose(analysis.induced_hor_map(g))


@criterion(7, "Thompson F relations")
def test_c07_f_relations():
    # classical F orientation = the inverses of the stored expansion
    # maps (see the interval-map direction notes in the module docs)
    def check(table, x0w, x1w):
        def inv(w):
            return [(n, -e) for n, e in reversed(w)]
        a1 = x0w + inv(x1w)
        for b in (inv(x0w) + x1w + x0w,
                  inv(x0w) + inv(x0w) + x1w + x0w + x0w):
            word = a1 + b + inv(a1) + inv(b)
            assert evaluate_word(table, word).is_identity()
    check(interval_generators(), [("x0", -1)], [("x1", -1)])
    check(G, [("a", -1)], [("e", -1)])


@criterion(8, "transitivity at desk scale")
def test_c08_transitivity():
    rep = comp.check_k_transitivity(1, "five", 8, 30)
    assert rep["ok"] and rep["checked"] == 2409
    rep = comp.check_k_transitivity(1, "commutator", 8, 30)
    assert rep["ok"]
    rng = random.Random(108)
    rep = comp.check_k_transitivity(2, "five", 8, 30, sample=20, rng=rng)
    assert rep["ok"] and rep["checked"] == 20
    rep = comp.check_k_transitivity(2, "commutator", 8, 30, sample=20, rng=rng)
    assert rep["ok"] and rep["checked"] == 20
    # three rays vs three on the horizontal line: alignment separates
    # the orbits, so no word maps one triple to the other
    rays3 = (((F(0), H),), ((F(1, 4), H),), ((H, H),))
    hor3 = (((F(0), F(1, 4)),), ((F(0), H),), ((F(0), F(3, 4)),))
    assert comp.aligned(list(rays3)) is None
    assert comp.aligned(list(hor3)) is not None
    for name in NAMES:
        for sign in (1, -1):
            imgs = [comp.act(name, sign, c) for c in rays3]
            assert comp.aligned(imgs) is None


@criterion(9, "alignment invariance")
def test_c09_alignment_invariance():
    rng = random.Random(109)
    pool = comp.enumerate_components(8, 2)
    for i in range(100):
        triple = rng.sample(pool, 3)
        word = rand_word(rng, 6)
        imgs = [comp.act_word(word, c) for c in triple]
        assert (comp.aligned(triple) is None) == (comp.aligned(imgs) is None)
        if i < 10:  # spot-check the fast action against the diagrams
            f = evaluate_word(G, word)
            assert imgs == [comp.map_component(f, c) for c in triple]


@criterion(10, "circularization functor and morphism")
def test_c10_circularization():
    rng = random.Random(110)
    frontier = {frozenset(): Expansion(A)}
    exps = dict(frontier)
    for _ in range(3):
        nxt = {}
        for e in frontier.values():
            for leaf in e.leaves():
                e2 = e.expand(leaf)
                key = frozenset(e2.internal)
                if key not in exps:
                    exps[key] = e2
                    nxt[key] = e2
        frontier = nxt
    for e in exps.values():
        ref, _, _ = cz.phi_expansion(e)
        for _ in range(2):
            order = _parents_first_shuffle(e.internal, rng)
            alt, _, _ = cz.phi_expansion(e, order=order)
            assert alt.internal == ref.internal
    for _ in range(100):
        f = evaluate_word(G, rand_word(rng, 6))
        g = evaluate_word(G, rand_word(rng, 6))
        assert cz.phi_diagram(f.compose(g)).equals(
            cz.phi_diagram(f).compose(cz.phi_diagram(g)))
    seen = 0
    while seen < 100:
        f = evaluate_word(G, rand_word(rng, 10))
        if f.is_identity():
            continue
        seen += 1
        assert not cz.phi_diagram(f).is_identity()


def _parents_first_shuffle(internal, rng):
    left = set(internal)
    out = []
    while left:
        ready = [a for a in left if parent(a) not in left]
        out.append(rng.choice(sorted(ready)))
        left.remove(out[-1])
    return out


@criterion(11, "tree action intertwining")
def test_c11_tree_intertwining():
    rep = trees.intertwine_check(2, 8)
    # root has 8 denominator-8 turns; deeper vertices 6 turns + 1 step
    assert rep["ok"] and rep["checked"] == 4 * (1 + 8 + 8 * 7)
    swapped = [("a", "b"), ("b", "a"), ("g", "c"), ("d", "d")]
    bad = trees.intertwine_check(1, 8, pairing=swapped)
    assert not bad["ok"]


@criterion(12, "E membership")
def test_c12_E_membership():
    rng = random.Random(112)
    for _ in range(50):
        w = rand_word(rng, 8, "bgd")
        assert analysis.is_in_E(evaluate_word(G, w))
    assert not analysis.is_in_E(G["e"])
    for _ in range(100):
        f = evaluate_word(G, rand_word(rng, 8))
        if analysis.is_in_E(f):
            assert analysis.is_in_commutator(f)
