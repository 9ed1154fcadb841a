"""Flattening the Airplane into a circle.

Every Airplane expansion folds onto an expansion of a six-edge cycle:
each red arc keeps one circular edge, while each blue ray contributes
two (one for each side the ray is seen from when walking around the
outside of the Airplane).  Rearrangements transport through the
correspondence, giving an injective morphism into the rearrangement
group of the cycle.
"""

import functools

from .core import Expansion, child
from .diagram import GraphPairDiagram
from .systems import circular_airplane


@functools.cache
def circular_system():
    """The shared circular replacement system instance."""
    return circular_airplane()


class EdgeCorrespondence:
    """One circular edge per red edge, an ordered pair per blue edge.

    The pair is (co, anti): the side reached first, resp. last, when
    traversing the base cycle in its orientation.
    """

    def __init__(self, single=None, pair=None):
        self.single = dict(single or {})
        self.pair = dict(pair or {})

    @classmethod
    def base(cls):
        return cls(
            single={("rT", ()): ("c1", ()), ("rB", ()): ("c4", ())},
            pair={("bL", ()): (("c2", ()), ("c3", ())),
                  ("bR", ()): (("c5", ()), ("c0", ()))},
        )

    def of(self, addr):
        if addr in self.single:
            return self.single[addr]
        return self.pair[addr]


def phi_expansion(expansion, order=None):
    """The circular expansion and edge correspondence of an Airplane
    expansion.  Independent of the order of simple expansions; `order`
    may supply any parents-before-children replay of them."""
    corr = EdgeCorrespondence.base()
    if order is not None:
        if sorted(order) != sorted(expansion.internal):
            raise ValueError("order must replay the expansion")
        todo = list(order)
    else:
        todo = sorted(expansion.internal, key=lambda a: (len(a[1]), a))
    internal = []
    for a in todo:
        if a in corr.single:  # a red cell
            b = corr.single[a]
            internal.append(b)
            # arc splits in two, a fresh ray sprouts between them
            corr.single[child(a, 0)] = child(b, 0)
            corr.single[child(a, 1)] = child(b, 3)
            corr.pair[child(a, 2)] = (child(b, 1), child(b, 2))
        else:
            p, q = corr.pair[a]
            internal += (p, q)
            # the two sides of the halved ray interleave: the inner
            # half is seen co-side from one walk and anti-side from
            # the other, the midpoint circle contributes one arc each
            corr.pair[child(a, 0)] = (child(q, 2), child(p, 0))
            corr.single[child(a, 1)] = child(q, 1)
            corr.single[child(a, 2)] = child(p, 1)
            corr.pair[child(a, 3)] = (child(p, 2), child(q, 0))
    return Expansion(circular_system(), internal), corr


def phi_diagram(f):
    """Transport a rearrangement of the Airplane to one of the cycle."""
    dom, dcorr = phi_expansion(f.domain)
    rng, rcorr = phi_expansion(f.range)
    mapping = {}
    for a, (b, rev) in f.mapping.items():
        if a in dcorr.single:
            mapping[dcorr.single[a]] = (rcorr.single[b], rev)
        else:
            pa, qa = dcorr.pair[a]
            pb, qb = rcorr.pair[b]
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
