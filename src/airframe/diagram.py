"""Graph pair diagrams: the elements of a rearrangement group.

A diagram pairs the leaf cells of a domain expansion with the leaf
cells of a range expansion, color for color.  Each pair carries a flag:
straight (the canonical cell homeomorphism) or reversed (the canonical
homeomorphism composed with the cell's end-for-end symmetry).  Reversed
pairs expand through the unique incidence- and color-preserving
involution of the rule graph that swaps the initial and terminal
vertex.
"""

import copy
import functools
import itertools
import json

from . import core
from .core import Expansion, child, parse_address


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
    """A diagram is its leaf mapping {domain leaf: (range leaf,
    reversed?)}; both expansions are the parent-closures of its leaves,
    derived on first use."""

    def __init__(self, system, mapping):
        self.system = system
        self.mapping = dict(mapping)

    @functools.cached_property
    def domain(self):
        return Expansion(self.system, _internal_from_leaves(self.mapping))

    @functools.cached_property
    def range(self):
        return Expansion(self.system, _internal_from_leaves(
            b for b, _ in self.mapping.values()))

    @functools.cached_property
    def _factors(self):
        """self and its inverse, reduced, numbered once for the left action."""
        factor = _Factor(self.reduce())
        return factor, factor.inverse()

    @classmethod
    def from_strings(cls, system, pairs):
        """Build a diagram from (domain addr, range addr[, reversed]) triples."""
        mapping = {}
        for pair in pairs:
            rev = bool(pair[2]) if len(pair) > 2 else False
            mapping[parse_address(pair[0])] = (parse_address(pair[1]), rev)
        return cls(system, mapping)

    # -- validity ----------------------------------------------------

    def validate(self):
        """Do the pairs cover both leaf sets, color for color, and glue
        into a bijection of the realized vertices?"""
        dom, rng = self.domain.realized(), self.range.realized()
        if (dom.keys() != self.mapping.keys()
                or {b for b, _ in self.mapping.values()} != rng.keys()
                or len(rng) != len(dom)):
            return False
        vmap = {}
        for a, (b, rev) in self.mapping.items():
            color, src, tgt = dom[a]
            image_color, u, w = rng[b]
            if color != image_color:
                return False
            for x, y in ((src, w), (tgt, u)) if rev else ((src, u), (tgt, w)):
                if vmap.setdefault(x, y) != y:
                    return False
        return len(set(vmap.values())) == len(vmap)

    # -- expansion and reduction --------------------------------------

    def expand_pair(self, a):
        b, rev = self.mapping[a]
        mapping = dict(self.mapping)
        del mapping[a]
        sigma = _matching(self.system, self.system.color_of(a), rev)
        mapping.update((child(a, i), (child(b, j), r))
                       for i, (j, r) in enumerate(sigma))
        return GraphPairDiagram(self.system, mapping)

    def leaf_image(self, a):
        """Where the first leaf at or below cell a (following child 0)
        goes once pairs are expanded until a is a node of the domain tree:
        the image of a's domain-leaf ancestor, followed down the rest of
        a's path through the child pairings."""
        system, mapping = self.system, self.mapping
        base, path = a
        n = 0
        while n <= len(path) and (base, path[:n]) not in mapping:
            n += 1
        if n > len(path):  # a is an internal node of the domain
            system.color_of(a)  # raises unless the system has cell a
            while a not in mapping:
                a = child(a, 0)
            return mapping[a][0]
        p = (base, path[:n])
        (b, image), rev = mapping[p]
        color = system.color_of(p)
        tail = []
        for i in path[n:]:
            j, rev = _matching(system, color, rev)[i]
            tail.append(j)
            color = system.child_colors[color][i]
        return (b, image + tuple(tail))

    def reduce(self):
        """The unique reduced form: self when no pair collapses."""
        roots, collapsed = _forest(self)
        return _diagram(self.system, roots) if collapsed else self

    # -- group operations ----------------------------------------------

    def compose(self, other):
        """self after other."""
        return _product(other, [self._factors[0]])

    def invert(self):
        mapping = {b: (a, r) for a, (b, r) in self.mapping.items()}
        return GraphPairDiagram(self.system, mapping)

    def equals(self, other):
        return self.reduce().mapping == other.reduce().mapping

    def is_identity(self):
        d = self.reduce()
        return all(a == b and not r for a, (b, r) in d.mapping.items())

    def power(self, k):
        """self^k as |k| left actions, the cost of the flattened word
        (callers stay within words.MAX_LETTERS: the CLI flattens ^k, and
        semidirect_split's k is a word's epsilon exponent)."""
        return _product(identity(self.system),
                        itertools.repeat(self._factors[k < 0], abs(k)))

    def conjugate(self, g):
        """self conjugated by g: g^-1 after self after g."""
        return _product(g, [self._factors[0], g._factors[1]])

    # -- serialization --------------------------------------------------

    def to_json(self):
        """Leaves and pairs in sorted order; each leaf is spelled once, and
        the two sides share one speller, as they share their top cells."""
        spell = core.speller()
        pairs = sorted([(spell(a), spell(b), r)
                        for a, (b, r) in self.mapping.items()])
        return {
            "system": self.system.name,
            "domain": [a for a, _, _ in pairs],
            "range": sorted([b for _, b, _ in pairs]),
            "map": {a: "~" + b if r else b for a, b, r in pairs},
        }

    @classmethod
    def from_json(cls, system, data):
        if not isinstance(data, dict) or "system" not in data \
                or not isinstance(data.get("map"), dict):
            raise ValueError("a diagram is an object with a system and a map")
        if data["system"] != system.name:
            raise ValueError("diagram is over system %r" % data["system"])
        if not all(isinstance(x, str) for pair in data["map"].items()
                   for x in pair):
            raise ValueError("map keys and values must be leaf names")
        pairs = []
        for a, b in data["map"].items():
            rev = b.startswith("~")
            pairs.append((a, b[1:] if rev else b, rev))
        # to_json's leaf lists, when given, must be the map's
        for key, leaves in (("domain", [a for a, _, _ in pairs]),
                            ("range", [b for _, b, _ in pairs])):
            if key in data and data[key] != sorted(leaves):
                raise ValueError("%s does not match the map" % key)
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


@functools.cache
def _straight(n):
    return tuple((i, False) for i in range(n))


def _matching(system, color, rev):
    """How the children of a pair of color cells pair up: (child index,
    reversed?) by child index, for a straight or a reversed pair."""
    if not rev:
        return _straight(len(system.child_colors[color]))
    sigma = _reversal(system.rules[color])
    if sigma is None:
        raise ValueError("rule for color %r has no reversal" % color)
    return sigma


def _internal_from_leaves(leaves):
    internal = set()
    for base, path in leaves:
        for n in range(len(path) - 1, -1, -1):
            p = (base, path[:n])
            if p in internal:
                break
            internal.add(p)
    return internal


def identity(system):
    return GraphPairDiagram(system, {(eid, ()): ((eid, ()), False)
                                     for eid, _, _, _ in system.base.edges})


def commutator(g, h):
    """g after h after g^-1 after h^-1."""
    return _product(h.invert(), [g._factors[1], h._factors[0],
                                 g._factors[0]])


def evaluate_word(table, word):
    """Evaluate a word as a diagram.

    table: {name: GraphPairDiagram}; word: list of (name, exponent),
    applied right to left like function composition.  Adjacent inverse
    letters cancel first (x x^-1 is the identity, and the reduced diagram
    is unique); each remaining letter acts |exponent| times on the left of
    the running product, in time proportional to the letter plus the
    cells of the product it refines.
    """
    if not table:
        raise ValueError("empty generator table")
    system = next(iter(table.values())).system
    factors = []
    for name, exp in reversed(word):
        try:
            g = table[name]
        except KeyError:
            raise ValueError("unknown generator %r" % (name,)) from None
        if g.system is not system:
            raise ValueError("diagrams over different systems")
        for _ in range(abs(exp)):
            if factors and factors[-1] is g._factors[exp > 0]:
                factors.pop()
            else:
                factors.append(g._factors[exp < 0])
    return _product(identity(system), factors)


# --- the left-action product -------------------------------------------------
#
# _product keeps the range of the running product p as a forest of
# mutable nodes [children, lazy, domain address, flag, color], one root per
# base edge; a node's range address is its position.  children is None at
# a leaf, whose pair is domain address -> position, reversed if flag !=
# lazy.  A set lazy bit means the node's subtree is stored as it was before
# the end-for-end reversal of its cell: clearing it (_push) moves stored
# child i to position j and flips its lazy bit if (j, flip) is the rule's
# reversal matching at i.  So moving a subtree costs O(1) even when the
# pair that moves it is reversed.


def _product(start, factors):
    """The factors' left actions on start: [f1, f2] gives f2 o f1 o start."""
    system = start.system
    roots, _ = _forest(start)
    for factor in factors:
        if factor.system is not system:
            raise ValueError("diagrams over different systems")
        roots = factor.act(roots)
    return _diagram(system, roots)


def _forest(g):
    """The forest of g's reduced form, and whether any pair collapsed.

    Each leaf is hung at its range address, walked down by child index;
    the internal nodes are then joined deepest first, so a node's
    children are final when its turn comes.  Loops, not recursion:
    diagrams can be thousands of levels deep.
    """
    system = g.system
    by_id, child_colors = system.base.by_id, system.child_colors
    top = [dict.fromkeys(by_id), False, None, False, None]  # over the roots
    levels = []  # levels[d]: (kids, slot) of each internal node at depth d
    for a, ((eid, path), rev) in g.mapping.items():
        node, i = top, eid
        for d, j in enumerate(path):
            kids = node[0]
            if kids[i] is None:
                color = (by_id[i][0] if node is top
                         else child_colors[node[4]][i])
                kids[i] = [[None] * len(child_colors[color]),
                           False, None, False, color]
                if d == len(levels):
                    levels.append([])
                levels[d].append((kids, i))
            node, i = kids[i], j
        color = by_id[i][0] if node is top else child_colors[node[4]][i]
        node[0][i] = [None, False, a, rev, color]
    collapsed = False
    for level in reversed(levels):
        for kids, i in level:
            kids[i] = _joined(system, kids[i][0], kids[i][4])
            collapsed = collapsed or kids[i][0] is None
    return [top[0][eid] for eid, _, _, _ in system.base.edges], collapsed


class _Factor:
    """A reduced diagram g, numbered for the left action p -> g o p.

    The cells of each side are numbered breadth first, base edges first,
    so the children of the k-th internal cell take the next free numbers.
    sides holds, for the domain and the range, the internals in that
    order as (number, first child number, end, color) and the cell count;
    pairs holds (domain number, range number, reversed) for g's leaf
    pairs.  walk lists the domain internals' numbers; joins lists the
    range internals deepest first; size counts the range cells.
    """

    def __init__(self, g):
        self.system = g.system
        dom, dwalk = self._numbered(g.domain.internal)
        rng, rwalk = self._numbered(g.range.internal)
        self.sides = (dwalk, len(dom)), (rwalk, len(rng))
        self.pairs = [(dom[a], rng[b], r) for a, (b, r) in g.mapping.items()]
        self._lists()

    def inverse(self):
        """The factor of g^-1: the same numberings, sides swapped."""
        inv = copy.copy(self)
        inv.sides = self.sides[::-1]
        inv.pairs = [(j, k, r) for k, j, r in self.pairs]
        inv._lists()
        return inv

    def _lists(self):
        (dwalk, _), (rwalk, self.size) = self.sides
        self.walk = [k for k, _, _, _ in dwalk]
        self.joins = rwalk[::-1]

    def _numbered(self, internal):
        child_colors = self.system.child_colors
        cells = [((eid, ()), color)
                 for eid, color, _, _ in self.system.base.edges]
        number, internals = {}, []
        for k, (a, color) in enumerate(cells):  # cells grows as we go
            number[a] = k
            if a in internal:
                kids = child_colors[color]
                internals.append((k, len(cells), len(cells) + len(kids),
                                  color))
                cells += [(child(a, i), c) for i, c in enumerate(kids)]
        return number, internals

    def act(self, roots):
        """The forest of g o p, given the forest of p; reuses p's nodes."""
        system = self.system
        # 1. refine p's range to g's domain, reaching g's domain leaves
        nodes = list(roots)
        for k in self.walk:
            node = nodes[k]
            if node[0] is None:
                _split(system, node)
            elif node[1]:
                _push(system, node)
            nodes += node[0]
        # 2. re-hang each reached subtree at the image of its cell
        out = [None] * self.size
        for k, j, rev in self.pairs:
            node = nodes[k]
            if rev:
                node[1] = not node[1]
            out[j] = node
        # 3. g's range internals are the only nodes that can collapse
        for j, first, end, color in self.joins:
            out[j] = _joined(system, out[first:end], color)
        return out[:len(roots)]


def _split(system, node):
    """Expand a leaf's pair in place into its child pairs."""
    _, lazy, (base, path), flag, color = node
    colors = system.child_colors[color]
    kids = [None] * len(colors)
    for i, (j, r) in enumerate(_matching(system, color, flag != lazy)):
        kids[j] = [None, False, (base, path + (i,)), r, colors[j]]
    node[0], node[1], node[2] = kids, False, None


def _push(system, node):
    """Clear an internal node's lazy bit, one level down."""
    kids = node[0]
    out = [None] * len(kids)
    for kid, (j, r) in zip(kids, _matching(system, node[4], True)):
        if r:
            kid[1] = not kid[1]
        out[j] = kid
    node[0], node[1] = out, False


def _joined(system, kids, color):
    """A fresh internal node over kids, or the leaf it collapses to when
    the kids are leaves holding every child of one domain cell, paired
    straight or by the reversal matching."""
    node = [kids, False, None, False, color]
    a = kids[0][2]  # None at an internal node
    if a is None or not a[1]:
        return node
    a = a[0], a[1][:-1]
    got = [None] * len(kids)
    for j, (_, lazy, d, flag, _) in enumerate(kids):
        # a differently colored cell can have more children than kids
        if d is None or not d[1] or (d[0], d[1][:-1]) != a \
                or d[1][-1] >= len(got):
            return node
        got[d[1][-1]] = (j, flag != lazy)
    got = tuple(got)
    if got == _straight(len(got)):
        return [None, False, a, False, color]
    if got == _reversal(system.rules[color]):
        return [None, False, a, True, color]
    return node


def _diagram(system, roots):
    """The diagram a forest holds, clearing lazy bits on the way."""
    mapping = {}
    stack = [((eid, ()), node)
             for (eid, _, _, _), node in zip(system.base.edges, roots)]
    while stack:
        x, node = stack.pop()
        if node[0] is None:
            mapping[node[2]] = (x, node[3] != node[1])
            continue
        if node[1]:
            _push(system, node)
        base, path = x
        stack += [((base, path + (j,)), kid)
                  for j, kid in enumerate(node[0])]
    return GraphPairDiagram(system, mapping)
