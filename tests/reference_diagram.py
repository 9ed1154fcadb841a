"""Reference product and reduction, kept apart from the left-action
forest that airframe.diagram runs: compose refines both sides to a
common expansion and reduces; reduce collapses pairs from a worklist,
in an order an rng may shuffle.  Tests compare the library against
these."""

from airframe import core
from airframe.core import child
from airframe.diagram import (GraphPairDiagram, _matching, _reversal,
                              _straight)


def compose(f, g):
    """f after g."""
    if f.system is not g.system:
        raise ValueError("diagrams over different systems")
    mid = g.range.internal | f.domain.internal
    left = _refined(g.invert(), mid)
    right = _refined(f, mid)
    mapping = {}
    for b, (a, r1) in left.items():
        c, r2 = right[b]
        mapping[a] = (c, r1 != r2)
    return reduce(GraphPairDiagram(f.system, mapping))


def reduce(f, rng=None):
    """The unique reduced form.  rng, if given, shuffles the collapse
    schedule (the result does not depend on it).  A node can only
    become collapsible when a child collapses, so one worklist pass
    that pushes the parent of each collapse is enough."""
    system = f.system
    mapping = dict(f.mapping)
    work = list({core.parent(a) for a in mapping} - {None})
    if rng is not None:
        work.sort()
        rng.shuffle(work)
    while work:
        a = work.pop()
        color = system.color_of(a)
        n = len(system.child_colors[color])
        images = [mapping.get(child(a, i)) for i in range(n)]
        if None in images:
            continue
        b = core.parent(images[0][0])
        if b is None or any(core.parent(c) != b for c, _ in images):
            continue
        flag = _collapse_flag(system, color,
                              tuple((c[1][-1], r) for c, r in images))
        if flag is None:
            continue
        for i in range(n):
            del mapping[child(a, i)]
        mapping[a] = (b, flag)
        if a[1]:  # not a base edge
            work.append(core.parent(a))
    if len(mapping) == len(f.mapping):
        return f
    return GraphPairDiagram(system, mapping)


def _collapse_flag(system, color, got):
    """The flag of the pair that children pairing up as got collapse
    to, or None if they do not collapse."""
    if got == _straight(len(system.child_colors[color])):
        return False
    if got == _reversal(system.rules[color]):
        return True
    return None


def _child_pairs(system, a, b, rev):
    """The pairs that replace the pair a -> b (reversed if rev)."""
    sigma = _matching(system, system.color_of(a), rev)
    return [(child(a, i), (child(b, j), r)) for i, (j, r) in enumerate(sigma)]


def _refined(f, target):
    """f's mapping expanded in place until the domain is the parent-closed
    target (cells by depth, so each is a leaf when its turn comes)."""
    mapping = dict(f.mapping)
    for a in sorted(target - f.domain.internal, key=lambda a: len(a[1])):
        b, rev = mapping.pop(a)
        mapping.update(_child_pairs(f.system, a, b, rev))
    return mapping
