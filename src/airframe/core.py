"""Colored edge-replacement systems: base graphs, rules, expansions.

An edge address names a cell of the fractal limit space.  The base edge
"bR" expanded twice, taking child 3 then child 0, is written "bR.3-0".
Internally an address is a pair (base_id, (3, 0)).
"""

import json


def parse_address(s):
    if "." in s:
        base, rest = s.split(".", 1)
        return (base, tuple(map(int, rest.split("-"))))
    return (s, ())


def format_address(addr):
    base, path = addr
    if not path:
        return base
    return base + "." + "-".join(map(str, path))


# the text a child index adds to its parent's string: after a base edge
# (".i") or after a deeper cell ("-i"), for the indices of small rules
_SUFFIXES = tuple(tuple(sep + str(i) for i in range(10)) for sep in ".-")


def speller():
    """format_address with a memo of the cells above the addresses
    spelled: an address is its parent's string plus one child index, so
    spelling the leaves of a tree spells each internal cell once and
    stores no leaf.  Loops, not recursion: trees can be thousands of
    levels deep."""
    memo = {}

    def spell(addr):
        base, path = addr
        k = len(path) - 1  # the parent is (base, path[:k])
        if k < 0:
            return base
        s = memo.get((base, path[:k])) if k else base
        if s is None:
            j = k
            while s is None:  # up to the deepest spelled ancestor
                j -= 1
                s = memo.get((base, path[:j])) if j else base
            for j in range(j, k):  # then down to the parent, keeping each
                s += ("-" if j else ".") + str(path[j])
                memo[base, path[:j + 1]] = s
        try:
            return s + _SUFFIXES[k > 0][path[k]]
        except IndexError:  # a rule with more than ten children
            return s + ("-" if k else ".") + str(path[k])
    return spell


def parent(addr):
    base, path = addr
    if not path:
        return None
    return (base, path[:-1])


def child(addr, i):
    base, path = addr
    return (base, path + (i,))


class Graph:
    """A finite directed multigraph with colored edges.

    Edges are (edge_id, color, source, target) in a fixed order; the
    order of a rule graph's edges defines the child indices of an
    expansion.
    """

    def __init__(self, edges):
        self.edges = list(edges)
        self.by_id = {}
        for eid, color, src, tgt in self.edges:
            if eid in self.by_id:
                raise ValueError("duplicate edge id %r" % eid)
            self.by_id[eid] = (color, src, tgt)

    def vertices(self):
        vs = []
        for _, _, src, tgt in self.edges:
            for v in (src, tgt):
                if v not in vs:
                    vs.append(v)
        return vs

    def degree(self, v):
        d = 0
        for _, _, src, tgt in self.edges:
            d += (src == v) + (tgt == v)
        return d

    def __eq__(self, other):
        return isinstance(other, Graph) and self.edges == other.edges

    def to_dot(self, name="graph"):
        lines = ["digraph %s {" % name]
        for eid, color, src, tgt in self.edges:
            lines.append('  "%s" -> "%s" [label="%s", color="%s"];'
                         % (src, tgt, eid, color))
        lines.append("}")
        return "\n".join(lines)


class ReplacementRule:
    """What an edge of a given color is replaced by.

    The rule graph uses the reserved vertex names "i" and "t" for the
    initial and terminal vertex of the replaced edge; its other
    vertices are fresh on every application.
    """

    def __init__(self, color, graph):
        self.color = color
        self.graph = graph


class ReplacementSystem:
    def __init__(self, name, base, rules):
        self.name = name
        self.base = base
        self.rules = dict(rules)
        # per color, the colors of a cell's children in child order; the
        # length is the rule's arity
        self.child_colors = {c: tuple(e[1] for e in r.graph.edges)
                             for c, r in self.rules.items()}

    def colors(self):
        seen = []
        for _, color, _, _ in self.base.edges:
            if color not in seen:
                seen.append(color)
        for rule in self.rules.values():
            for _, color, _, _ in rule.graph.edges:
                if color not in seen:
                    seen.append(color)
        return seen

    def color_of(self, addr):
        base, path = addr
        color = self.base.by_id[base][0]
        child_colors = self.child_colors
        for i in path:
            color = child_colors[color][i]
        return color

    def to_json(self):
        def graph_json(g):
            return [[eid, color, src, tgt] for eid, color, src, tgt in g.edges]
        return {
            "name": self.name,
            "base": graph_json(self.base),
            "rules": {c: graph_json(r.graph) for c, r in self.rules.items()},
        }

    @classmethod
    def from_json(cls, data):
        def graph(edges):
            return Graph([tuple(e) for e in edges])
        rules = {c: ReplacementRule(c, graph(es))
                 for c, es in data["rules"].items()}
        return cls(data["name"], graph(data["base"]), rules)

    def dumps(self):
        return json.dumps(self.to_json(), indent=2)


def validate_system(system):
    """Check that every color in reach has a usable rule."""
    if not system.base.edges:
        return False
    for color in system.colors():
        if color not in system.rules:
            return False
        rule = system.rules[color]
        g = rule.graph
        if not g.edges:
            return False
        vs = g.vertices()
        if "i" not in vs or "t" not in vs:
            return False
    return True


class Expansion:
    """A finite expansion of the base graph.

    Stored as the set of internal (= expanded) addresses; the set is
    closed under taking parents.  The leaves are the cells of the
    corresponding cell decomposition of the limit space.
    """

    def __init__(self, system, internal=()):
        self.system = system
        self.internal = frozenset(internal)
        for a in self.internal:
            p = parent(a)
            if p is not None and p not in self.internal:
                raise ValueError("internal set not closed at %s"
                                 % format_address(a))

    def is_leaf(self, addr):
        return addr not in self.internal and self._exists(addr)

    def _exists(self, addr):
        p = parent(addr)
        if p is None:
            return addr[0] in self.system.base.by_id
        if p not in self.internal:
            return False
        color = self.system.color_of(p)
        return addr[1][-1] < len(self.system.child_colors[color])

    def leaves(self):
        """The leaves in preorder: base edges in order, children in
        child order."""
        return list(self.realized())

    def realized(self):
        """{leaf: (color, source, target)} in preorder, from one walk down
        the tree: a child's ends are its parent's ends where the rule
        graph says "i" or "t", else the fresh vertex ("r", parent, name);
        a base edge's ends are ("v", name)."""
        rules = self.system.rules
        out = {}
        stack = [((eid, ()), color, ("v", src), ("v", tgt))
                 for eid, color, src, tgt in reversed(self.system.base.edges)]
        while stack:
            addr, color, src, tgt = stack.pop()
            if addr not in self.internal:
                out[addr] = (color, src, tgt)
                continue
            ends = {"i": src, "t": tgt}
            kids = [(child(addr, i), c, ends.get(u) or ("r", addr, u),
                     ends.get(w) or ("r", addr, w))
                    for i, (_, c, u, w) in enumerate(rules[color].graph.edges)]
            stack += kids[::-1]
        return out

    def expand(self, addr):
        if not self.is_leaf(addr):
            raise ValueError("not a leaf: %s" % format_address(addr))
        return Expansion(self.system, self.internal | {addr})

    def __eq__(self, other):
        return (isinstance(other, Expansion)
                and self.system is other.system
                and self.internal == other.internal)

    def __hash__(self):
        return hash(self.internal)


def common_refinement(e1, e2):
    if e1.system is not e2.system:
        raise ValueError("expansions of different systems")
    return Expansion(e1.system, e1.internal | e2.internal)


# --- realization ----------------------------------------------------------

def realize_graph(expansion):
    """The realized graph of an expansion: a base vertex keeps its name,
    the fresh vertex v of the rule that expanded cell a is named "a:v"."""
    spell = speller()  # spelling a leaf spells the cells that name its ends
    names = {}  # each vertex named once, not once per edge end

    def name(tok):
        if tok not in names:
            names[tok] = tok[1] if tok[0] == "v" \
                else spell(tok[1]) + ":" + tok[2]
        return names[tok]
    return Graph((spell(a), color, name(src), name(tgt))
                 for a, (color, src, tgt) in expansion.realized().items())
