"""Flattening the Airplane into a circle.

Every Airplane expansion folds onto an expansion of a six-edge cycle:
each red arc keeps one circular edge, while each blue ray contributes
two (one for each side the ray is seen from when walking around the
outside of the Airplane).  Rearrangements transport through the
correspondence, giving an injective morphism into the rearrangement
group of the cycle.
"""

import functools

from .core import Expansion, child, format_address
from .diagram import GraphPairDiagram
from .systems import circular_airplane


@functools.cache
def circular_system():
    """The shared circular replacement system instance."""
    return circular_airplane()


def phi_expansion(expansion, order=None):
    """The circular expansion of an Airplane expansion, with the edge
    correspondence as two dicts: single, one circular edge per red edge,
    and pair, an ordered pair (co, anti) per blue edge, the side reached
    first, resp. last, when traversing the base cycle in its orientation.
    Independent of the order of simple expansions; `order` may supply
    any parents-before-children replay of them."""
    single = {("rT", ()): ("c1", ()), ("rB", ()): ("c4", ())}
    pair = {("bL", ()): (("c2", ()), ("c3", ())),
            ("bR", ()): (("c5", ()), ("c0", ()))}
    if order is not None:
        if sorted(order) != sorted(expansion.internal):
            raise ValueError("order must replay the expansion")
        todo = list(order)
    else:
        todo = sorted(expansion.internal, key=lambda a: (len(a[1]), a))
    internal = []
    for a in todo:
        if a in single:  # a red cell
            b = single[a]
            internal.append(b)
            # arc splits in two, a fresh ray sprouts between them
            single[child(a, 0)] = child(b, 0)
            single[child(a, 1)] = child(b, 3)
            pair[child(a, 2)] = (child(b, 1), child(b, 2))
        else:
            p, q = pair[a]
            internal += (p, q)
            # the two sides of the halved ray interleave: the inner
            # half is seen co-side from one walk and anti-side from
            # the other, the midpoint circle contributes one arc each
            pair[child(a, 0)] = (child(q, 2), child(p, 0))
            single[child(a, 1)] = child(q, 1)
            single[child(a, 2)] = child(p, 1)
            pair[child(a, 3)] = (child(p, 2), child(q, 0))
    return Expansion(circular_system(), internal), single, pair


def phi_diagram(f):
    """Transport a rearrangement of the Airplane to one of the cycle."""
    dom, dsingle, dpair = phi_expansion(f.domain)
    rng, rsingle, rpair = phi_expansion(f.range)
    mapping = {}
    for a, (b, rev) in f.mapping.items():
        if a in dsingle:
            if rev:  # a red arc is one edge of the cycle
                raise ValueError("red cell %s reverses orientation"
                                 % format_address(a))
            mapping[dsingle[a]] = (rsingle[b], False)
        else:
            pa, qa = dpair[a]
            pb, qb = rpair[b]
            if not rev:
                mapping[pa] = (pb, False)
                mapping[qa] = (qb, False)
            else:
                # end-for-end reversal swaps the two sides but keeps
                # each side's walking orientation
                mapping[pa] = (qb, False)
                mapping[qa] = (pb, False)
    out = GraphPairDiagram(circular_system(), mapping)
    if not (out.validate() and out.domain == dom and out.range == rng):
        raise ValueError("correspondence produced an invalid diagram")
    return out.reduce()
