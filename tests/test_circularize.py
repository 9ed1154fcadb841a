import random

from airframe import circularize as cz
from airframe.core import Expansion
from airframe.diagram import evaluate_word, identity
from airframe.systems import airplane, airplane_generators

NAMES = list("abgde")


def test_base_image_is_the_six_cycle(A):
    circ, single, pair = cz.phi_expansion(Expansion(A))
    assert len(circ.leaves()) == 6
    assert single[("rT", ())] == ("c1", ())
    assert pair[("bL", ())] == (("c2", ()), ("c3", ()))


def test_red_expansion_adds_three_edges(A):
    e = Expansion(A).expand(("rT", ()))
    circ, _, _ = cz.phi_expansion(e)
    assert len(circ.leaves()) == 9


def test_blue_expansion_adds_four_edges(A):
    e = Expansion(A).expand(("bR", ()))
    circ, _, _ = cz.phi_expansion(e)
    assert len(circ.leaves()) == 10


def test_correspondence_is_one_and_two(A):
    e = Expansion(A).expand(("bR", ())).expand(("rT", ()))
    circ, single, pair = cz.phi_expansion(e)
    reds = [a for a in e.leaves() if A.color_of(a) == "red"]
    blues = [a for a in e.leaves() if A.color_of(a) == "blue"]
    imgs = [single[a] for a in reds]
    imgs += [c for a in blues for c in pair[a]]
    assert sorted(imgs) == sorted(circ.leaves())


def test_order_independence(A):
    rng = random.Random(1)
    for _ in range(10):
        e = Expansion(A)
        steps = []
        for _ in range(4):
            leaf = rng.choice(sorted(e.leaves()))
            steps.append(leaf)
            e = e.expand(leaf)
        c1, _, _ = cz.phi_expansion(e)
        e2 = Expansion(A)
        for leaf in _reachable_order(e, steps, rng):
            e2 = e2.expand(leaf)
        c2, _, _ = cz.phi_expansion(e2)
        assert c1.internal == c2.internal


def _reachable_order(target, steps, rng):
    # any parent-before-child shuffle of the same expansion steps
    out = []
    remaining = list(steps)
    rng.shuffle(remaining)
    done = set()
    while remaining:
        for s in remaining:
            from airframe.core import parent
            p = parent(s)
            if p is None or p in done or p not in set(steps):
                out.append(s)
                done.add(s)
                remaining.remove(s)
                break
    return out


def test_phi_injective_two_rounds(A):
    frontier = {frozenset(): Expansion(A)}
    exps = dict(frontier)
    for _ in range(2):
        nxt = {}
        for e in frontier.values():
            for leaf in e.leaves():
                e2 = e.expand(leaf)
                key = frozenset(e2.internal)
                if key not in exps:
                    exps[key] = e2
                    nxt[key] = e2
        frontier = nxt
    images = {}
    for key, e in exps.items():
        circ, _, _ = cz.phi_expansion(e)
        ck = frozenset(circ.internal)
        assert ck not in images, "two expansions flattened identically"
        images[ck] = key


def test_phi_diagram_identity(A):
    assert cz.phi_diagram(identity(A)).is_identity()


def test_phi_is_a_homomorphism(gens):
    rng = random.Random(12)
    for _ in range(15):
        w1 = [(rng.choice(NAMES), rng.choice([1, -1])) for _ in range(4)]
        w2 = [(rng.choice(NAMES), rng.choice([1, -1])) for _ in range(4)]
        f, g = evaluate_word(gens, w1), evaluate_word(gens, w2)
        assert cz.phi_diagram(f.compose(g)).equals(
            cz.phi_diagram(f).compose(cz.phi_diagram(g)))


def test_phi_kernel_trivial_on_samples(gens):
    rng = random.Random(13)
    for _ in range(15):
        w = [(rng.choice(NAMES), rng.choice([1, -1])) for _ in range(6)]
        f = evaluate_word(gens, w)
        if not f.is_identity():
            assert not cz.phi_diagram(f).is_identity()
