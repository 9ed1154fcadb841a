"""Where the cells of the Airplane and the Basilica sit on their lines.

Every cell lies on one line: the central circle, a ray, a circle of the
Airplane or a loop of the Basilica, each read as [0, 1] (circles and
loops modulo 1).  A cell's (source, target) position follows from its
parent's by reading the rule graph: an endpoint named "i" sits at the
parent's source, one named "t" at the parent's target, any other at
the midpoint.  A child whose two ends both land on the midpoint starts
a new line: a fresh ray, the arcs of a fresh circle, a Basilica loop.
"""

import functools
from fractions import Fraction
from math import gcd

from .core import child
from .systems import airplane, basilica, is_dyadic

HALF = Fraction(1, 2)
ENDS = ("i", "t")

AIRPLANE = airplane()
BASILICA = basilica()

# A position is kept as integers (s, t, d): (source, target) = (s/d, t/d).
# CENTRAL holds the arcs of the central circle; every other base cell is
# a line of its own, spanning LINE and attached to the central circle at
# ATTACHED, a reduced (numerator, denominator) pair.
LINE = (0, 1, 1)
CENTRAL = {"rT": (0, 1, 2), "rB": (1, 2, 2), "ct": (0, 1, 2), "cb": (1, 2, 2)}
ATTACHED = {"bR": (0, 1), "bL": (1, 2), "lp": (0, 1), "lq": (1, 2)}


@functools.lru_cache(maxsize=64)
def _fresh_spans(edges, low):
    """(s, t, d) of the rule edges that start a new line, by child index.

    The line is walked along its edges from the vertex that meets the
    parent's `low` end ("i" or "t"), so that on a fresh circle angle 0
    faces the parent's lower position; each edge takes an equal share.
    """
    fresh = [k for k, (_, _, u, w) in enumerate(edges)
             if u not in ENDS and w not in ENDS]
    v = next(u if w == low else w for _, _, u, w in edges if low in (u, w))
    spans = {}
    for n in range(len(fresh)):
        k = next(k for k in fresh if k not in spans and edges[k][2] == v)
        spans[k] = (n, n + 1, len(fresh))
        v = edges[k][3]
    return spans


def _step(graph, s, t, d, i):
    """(color, s, t, d, starts a new line?) of child i of a cell at
    (s, t, d) whose rule graph is `graph`."""
    _, color, u, w = graph.edges[i]
    if u in ENDS or w in ENDS:
        m = s + t
        return (color, 2 * s if u == "i" else 2 * t if u == "t" else m,
                2 * s if w == "i" else 2 * t if w == "t" else m, 2 * d, False)
    low = "i" if s < t else "t"
    return (color,) + _fresh_spans(tuple(graph.edges), low)[i] + (True,)


def trail(system, addr):
    """walk's (color, s, t, d, start) for every prefix of a cell's path,
    the base cell first, from one walk down the path."""
    base, path = addr
    color = system.base.by_id[base][0]
    s, t, d = CENTRAL.get(base, LINE)
    start = 0
    out = [(color, s, t, d, start)]
    for k, i in enumerate(path, 1):
        color, s, t, d, fresh = _step(system.rules[color].graph, s, t, d, i)
        if fresh:
            start = k
        out.append((color, s, t, d, start))
    return out


def walk(system, addr):
    """(color, s, t, d, start) of a cell: its color, its (source, target)
    position (s/d, t/d), and the length of the path prefix that starts
    its line."""
    return trail(system, addr)[-1]


def leaf_positions(expansion):
    """(leaf, color, s, t, d) for each leaf of an expansion, from one
    walk down its tree."""
    system = expansion.system
    stack = [((eid, ()), color) + CENTRAL.get(eid, LINE)
             for eid, color, _, _ in system.base.edges]
    while stack:
        a, color, s, t, d = stack.pop()
        if a not in expansion.internal:
            yield a, color, s, t, d
            continue
        graph = system.rules[color].graph
        stack += [(child(a, i),) + _step(graph, s, t, d, i)[:4]
                  for i in range(len(graph.edges))]


def span(system, addr):
    """(source, target) position of a cell on its line."""
    _, s, t, d, _ = walk(system, addr)
    return Fraction(s, d), Fraction(t, d)


def line_of(system, addr):
    """The cell that starts the line this cell lies on; None for the
    central circle."""
    start = walk(system, addr)[4]
    base, path = addr
    return None if start == 0 and base in CENTRAL else (base, path[:start])


def hang_chain(system, addr):
    """The cell's midpoint on its line, then the point where that line
    hangs on the line it hangs from, and so on out to the central circle,
    each a reduced (numerator, denominator) pair.  Every line on the way
    is started by a prefix of the cell's path, so one walk gives every
    point."""
    base, _ = addr
    steps = trail(system, addr)
    _, s, t, d, k = steps[-1]
    out = [reduced(s + t, 2 * d)]
    while k:  # the line started by the prefix of length k
        _, s, t, d, k = steps[k - 1]
        out.append(reduced(s + t, 2 * d))
    if base not in CENTRAL:  # a base line hangs on the central circle
        out.append(ATTACHED[base])
    return out


def reduced(n, d):
    """n/d as a reduced (numerator, denominator) pair."""
    g = gcd(n, d)
    return n // g, d // g


def hang_points(system, addr):
    """hang_chain read as Fractions."""
    return [Fraction(n, d) for n, d in hang_chain(system, addr)]


def cell_at(system, points):
    """The inverse of hang_points: the first cell of the line that a
    chain of points reaches, out from the central circle.  The first
    point may be where a base line hangs (ATTACHED); any other is the
    midpoint of a cell of the current line, whose children that start a
    new line are the next.  No points: the first central arc."""
    edges = system.base.edges
    line = [((eid, ()), color) + CENTRAL[eid]
            for eid, color, _, _ in edges if eid in CENTRAL]
    hung = {Fraction(*ATTACHED[eid]): [((eid, ()), color) + LINE]
            for eid, color, _, _ in edges if eid in ATTACHED}
    for k, x in enumerate(points):
        if not is_dyadic(x):
            raise ValueError("not dyadic: %s" % x)
        line = (not k and hung.get(x)) or _next_line(system, line, x)
    return line[0][0]


def _next_line(system, line, x):
    """The line started by the cell whose midpoint is x, found by
    descending from the cell of `line` that holds x, along the line."""
    p, q = x.numerator, x.denominator
    while True:
        for cell, color, s, t, d in line:
            # x = p/q against (s/d, t/d), in integers
            if min(s, t) * q < d * p < max(s, t) * q:
                break
        else:
            raise ValueError("%s is not on this line" % x)
        mid = 2 * d * p == (s + t) * q
        # at x's cell, its children that start a new line; on the way
        # down to it, the ones that stay on this line
        graph = system.rules[color].graph
        line = [(child(cell, i),) + _step(graph, s, t, d, i)[:4]
                for i, (_, _, u, w) in enumerate(graph.edges)
                if (u not in ENDS and w not in ENDS) == mid]
        if mid:
            return line
