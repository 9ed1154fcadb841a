"""Graph pair diagrams: the elements of a rearrangement group.

A diagram pairs the leaf cells of a domain expansion with the leaf
cells of a range expansion, color for color.  Each pair carries a flag:
straight (the canonical cell homeomorphism) or reversed (the canonical
homeomorphism composed with the cell's end-for-end symmetry).  Reversed
pairs expand through the unique incidence- and color-preserving
involution of the rule graph that swaps the initial and terminal
vertex.
"""

import functools
import itertools
import json

from . import core
from .core import Expansion, child, format_address, parse_address


def reversal_matching(rule):
    """How the children of an end-for-end reversed cell pair up.

    Returns {child index: (child index, reversed?)}, or None if the
    rule graph has no reversal symmetry.  Ties (possible only at loop
    edges) are broken lexicographically, preferring straight.
    """
    g = rule.graph
    verts = [v for v in g.vertices() if v not in ("i", "t")]
    solutions = []
    for perm in itertools.permutations(verts):
        phi = {"i": "t", "t": "i"}
        phi.update(zip(verts, perm))
        # match edges under phi, trying straight before reversed
        def backtrack(i, used, acc):
            if i == len(g.edges):
                solutions.append(tuple(acc))
                return
            _, color, u, w = g.edges[i]
            for j, (_, c2, u2, w2) in enumerate(g.edges):
                if j in used or c2 != color:
                    continue
                for rev in (False, True):
                    pu, pw = (u2, w2) if not rev else (w2, u2)
                    if phi[u] == pu and phi[w] == pw:
                        backtrack(i + 1, used | {j}, acc + [(j, rev)])
            return
        backtrack(0, frozenset(), [])
    if not solutions:
        return None
    # Prefer the in-plane half turn (fewest reversals) over reflections:
    # e.g. the two arcs of a midpoint circle swap straight rather than
    # each mapping to itself reversed.
    best = min(solutions, key=lambda s: (sum(r for _, r in s), s))
    return {i: jr for i, jr in enumerate(best)}


class GraphPairDiagram:
    def __init__(self, system, domain, range_, mapping):
        self.system = system
        self.domain = domain
        self.range = range_
        self.mapping = dict(mapping)

    @classmethod
    def from_strings(cls, system, pairs):
        """Build a diagram from (domain addr, range addr[, reversed]) triples."""
        dom_leaves = []
        rng_leaves = []
        mapping = {}
        for pair in pairs:
            a = parse_address(pair[0])
            b = parse_address(pair[1])
            rev = bool(pair[2]) if len(pair) > 2 else False
            dom_leaves.append(a)
            rng_leaves.append(b)
            mapping[a] = (b, rev)
        dom = Expansion(system, _internal_from_leaves(dom_leaves))
        rng = Expansion(system, _internal_from_leaves(rng_leaves))
        return cls(system, dom, rng, mapping)

    # -- validity ----------------------------------------------------

    def validate(self):
        dom_leaves = self.domain.leaves()
        rng_leaves = self.range.leaves()
        if set(self.mapping) != set(dom_leaves):
            return False
        images = [b for b, _ in self.mapping.values()]
        if sorted(images) != sorted(rng_leaves):
            return False
        for a, (b, _) in self.mapping.items():
            if self.system.color_of(a) != self.system.color_of(b):
                return False
        return self._vertex_map() is not None

    def _vertex_map(self):
        """The induced map on realized vertices, or None if inconsistent."""
        duf = core._endpoint_tokens(self.domain)
        ruf = core._endpoint_tokens(self.range)
        vmap = {}
        for a, (b, rev) in self.mapping.items():
            ends = (("s", "s"), ("t", "t")) if not rev else (("s", "t"), ("t", "s"))
            for da, rb in ends:
                u = duf.find((da, a))
                w = ruf.find((rb, b))
                if u in vmap and vmap[u] != w:
                    return None
                vmap[u] = w
        if len(set(vmap.values())) != len(vmap):
            return None
        return vmap

    # -- expansion and reduction --------------------------------------

    def expand_pair(self, a):
        b, rev = self.mapping[a]
        mapping = dict(self.mapping)
        del mapping[a]
        mapping.update(_child_pairs(self.system, a, b, rev))
        return GraphPairDiagram(self.system, self.domain.expand(a),
                                self.range.expand(b), mapping)

    def leaf_image(self, a):
        """Where the first leaf at or below cell a (following child 0)
        goes, expanding pairs until a is a node of the domain tree."""
        f = self
        while not (f.domain.is_leaf(a) or a in f.domain.internal):
            p = a
            while not f.domain.is_leaf(p):
                p = core.parent(p)
            f = f.expand_pair(p)
        while a in f.domain.internal:
            a = child(a, 0)
        return f.mapping[a][0]

    def reduce(self, rng=None):
        """The unique reduced form.  rng, if given, shuffles the collapse
        schedule (the result does not depend on it).  A node can only
        become collapsible when a child collapses, so one worklist pass
        that pushes the parent of each collapse is enough."""
        system = self.system
        mapping = dict(self.mapping)
        dom, ran = set(self.domain.internal), set(self.range.internal)
        work = list({core.parent(a) for a in mapping} - {None})
        if rng is not None:
            work.sort()
            rng.shuffle(work)
        while work:
            a = work.pop()
            rule = system.rule_for(system.color_of(a))
            n = rule.arity()
            images = [mapping.get(child(a, i)) for i in range(n)]
            if None in images:
                continue
            b = core.parent(images[0][0])
            if b is None or any(core.parent(c) != b for c, _ in images):
                continue
            got = [(c[1][-1], r) for c, r in images]
            if got == [(i, False) for i in range(n)]:
                flag = False
            elif tuple(got) == _reversal(rule):
                flag = True
            else:
                continue
            for i in range(n):
                del mapping[child(a, i)]
            mapping[a] = (b, flag)
            dom.remove(a)
            ran.remove(b)
            if a[1]:  # not a base edge
                work.append(core.parent(a))
        if len(mapping) == len(self.mapping):
            return self
        return GraphPairDiagram(system, Expansion(system, dom),
                                Expansion(system, ran), mapping)

    # -- group operations ----------------------------------------------

    def compose(self, other):
        """self after other."""
        if self.system is not other.system:
            raise ValueError("diagrams over different systems")
        mid = other.range.internal | self.domain.internal
        left, dom_grown = _refined(other.invert(), mid)
        right, rng_grown = _refined(self, mid)
        mapping = {}
        for b, (a, r1) in left.items():
            c, r2 = right[b]
            mapping[a] = (c, r1 != r2)
        system = self.system
        out = GraphPairDiagram(
            system, Expansion(system, other.domain.internal | dom_grown),
            Expansion(system, self.range.internal | rng_grown), mapping)
        return out.reduce()

    def invert(self):
        mapping = {b: (a, r) for a, (b, r) in self.mapping.items()}
        return GraphPairDiagram(self.system, self.range, self.domain, mapping)

    def equals(self, other):
        a = self.reduce()
        b = other.reduce()
        return (a.domain.internal == b.domain.internal
                and a.range.internal == b.range.internal
                and a.mapping == b.mapping)

    def is_identity(self):
        d = self.reduce()
        return all(a == b and not r for a, (b, r) in d.mapping.items())

    def power(self, k):
        """self^k by repeated squaring."""
        if k < 0:
            return self.invert().power(-k)
        if k <= 1:
            return self.reduce() if k else identity(self.system)
        half = self.power(k // 2)
        out = half.compose(half)
        return out.compose(self) if k % 2 else out

    def conjugate(self, g):
        """self conjugated by g: g^-1 after self after g."""
        return g.invert().compose(self).compose(g)

    def order_up_to(self, n):
        """The order of the diagram if it is at most n, else None."""
        p = identity(self.system)
        for k in range(1, n + 1):
            p = p.compose(self)
            if p.is_identity():
                return k
        return None

    # -- serialization --------------------------------------------------

    def to_json(self):
        mp = {format_address(a): ("~" if r else "") + format_address(b)
              for a, (b, r) in self.mapping.items()}
        return {
            "system": self.system.name,
            "domain": sorted(mp),
            "range": sorted(format_address(b) for b, _ in self.mapping.values()),
            "map": dict(sorted(mp.items())),
        }

    @classmethod
    def from_json(cls, system, data):
        if data["system"] != system.name:
            raise ValueError("diagram is over system %r" % data["system"])
        pairs = []
        for a, b in data["map"].items():
            rev = b.startswith("~")
            pairs.append((a, b.lstrip("~"), rev))
        out = cls.from_strings(system, pairs)
        if not out.validate():
            raise ValueError("not a valid diagram over system %r"
                             % system.name)
        return out

    def dumps(self):
        return json.dumps(self.to_json(), indent=2)


@functools.cache
def _reversal(rule):
    """reversal_matching(rule) as a tuple by child index, once per rule."""
    sigma = reversal_matching(rule)
    return None if sigma is None else tuple(sigma[i] for i in sorted(sigma))


def _child_pairs(system, a, b, rev):
    """The pairs that replace the pair a -> b (reversed if rev)."""
    rule = system.rule_for(system.color_of(a))
    n = rule.arity()
    sigma = _reversal(rule) if rev else [(i, False) for i in range(n)]
    if sigma is None:
        raise ValueError("rule for color %r has no reversal" % rule.color)
    return [(child(a, i), (child(b, j), r)) for i, (j, r) in enumerate(sigma)]


def _refined(f, target):
    """f's mapping expanded in place until the domain is the parent-closed
    target (cells by depth, so each is a leaf when its turn comes), and
    the range cells expanded on the way."""
    mapping = dict(f.mapping)
    grown = set()
    for a in sorted(target - f.domain.internal, key=lambda a: len(a[1])):
        b, rev = mapping.pop(a)
        mapping.update(_child_pairs(f.system, a, b, rev))
        grown.add(b)
    return mapping, grown


def _internal_from_leaves(leaves):
    internal = set()
    for a in leaves:
        p = core.parent(a)
        while p is not None:
            internal.add(p)
            p = core.parent(p)
    return internal


def identity(system, expansion=None):
    exp = expansion if expansion is not None else Expansion(system)
    mapping = {a: (a, False) for a in exp.leaves()}
    return GraphPairDiagram(system, exp, exp, mapping)


def commutator(g, h):
    return g.compose(h).compose(g.invert()).compose(h.invert())


def evaluate_word(table, word):
    """Evaluate a word as a diagram.

    table: {name: GraphPairDiagram}; word: list of (name, exponent),
    applied right to left like function composition.
    """
    power = functools.cache(lambda name, exp: table[name].power(exp))
    factors = [power(name, exp) for name, exp in word]
    if not factors:
        return identity(next(iter(table.values())).system)
    # pairwise rounds: each round costs time linear in the leaves
    while len(factors) > 1:
        factors = [factors[i].compose(factors[i + 1])
                   if i + 1 < len(factors) else factors[i]
                   for i in range(0, len(factors), 2)]
    return factors[0]
