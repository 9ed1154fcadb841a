"""The replacement systems used in this package, with their standard
generators, plus exact piecewise-linear map support.

Airplane base graph: a circle made of two red arcs rT (top, R to L)
and rB (bottom, L to R), with blue rays bL (L outward) and bR (R
outward).  A red edge splits into two half arcs and sprouts a blue ray
at the midpoint; a blue edge splits into an inner half, a circle of
two red arcs at the midpoint, and an outer half.
"""

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm

from .core import Graph, ReplacementRule, ReplacementSystem
from .diagram import GraphPairDiagram


def airplane():
    base = Graph([
        ("bL", "blue", "L", "vL"),
        ("bR", "blue", "R", "vR"),
        ("rT", "red", "R", "L"),
        ("rB", "red", "L", "R"),
    ])
    red = ReplacementRule("red", Graph([
        ("0", "red", "i", "m"),
        ("1", "red", "m", "t"),
        ("2", "blue", "m", "x"),
    ]))
    blue = ReplacementRule("blue", Graph([
        ("0", "blue", "m", "i"),
        ("1", "red", "f", "m"),
        ("2", "red", "m", "f"),
        ("3", "blue", "f", "t"),
    ]))
    return ReplacementSystem("airplane", base, {"red": red, "blue": blue})


def basilica():
    base = Graph([
        ("ct", "black", "P", "Q"),
        ("cb", "black", "Q", "P"),
        ("lp", "black", "P", "P"),
        ("lq", "black", "Q", "Q"),
    ])
    rule = ReplacementRule("black", Graph([
        ("0", "black", "i", "m"),
        ("1", "black", "m", "m"),
        ("2", "black", "m", "t"),
    ]))
    return ReplacementSystem("basilica", base, {"black": rule})


def interval_system():
    base = Graph([("e", "black", "l", "r")])
    rule = ReplacementRule("black", Graph([
        ("0", "black", "i", "m"),
        ("1", "black", "m", "t"),
    ]))
    return ReplacementSystem("interval", base, {"black": rule})


def circle_system():
    base = Graph([
        ("u", "black", "a", "b"),
        ("v", "black", "b", "a"),
    ])
    rule = ReplacementRule("black", Graph([
        ("0", "black", "i", "m"),
        ("1", "black", "m", "t"),
    ]))
    return ReplacementSystem("circle", base, {"black": rule})


def circular_airplane():
    colors = ["blue", "red", "blue", "blue", "red", "blue"]
    base = Graph([
        ("c%d" % k, colors[k], "w%d" % k, "w%d" % ((k + 1) % 6))
        for k in range(6)
    ])
    red = ReplacementRule("red", Graph([
        ("0", "red", "i", "p"),
        ("1", "blue", "p", "q"),
        ("2", "blue", "q", "r"),
        ("3", "red", "r", "t"),
    ]))
    blue = ReplacementRule("blue", Graph([
        ("0", "blue", "i", "p"),
        ("1", "red", "p", "q"),
        ("2", "blue", "q", "t"),
    ]))
    return ReplacementSystem("circular_airplane", base, {"red": red,
                                                         "blue": blue})


# --- generators -----------------------------------------------------------

def airplane_generators(system=None):
    """The five standard generators alpha..epsilon of the Airplane group.

    alpha translates the horizontal line rightwards (the central circle
    lands halfway along the right ray); beta and gamma act on the
    central circle like the circle maps Y0 and Y1; delta is the half
    turn; epsilon acts on the right ray like the interval map X1.
    """
    A = system if system is not None else airplane()
    mk = lambda pairs: GraphPairDiagram.from_strings(A, pairs)
    alpha = mk([
        ("bL.3", "bL"),
        ("bL.0", "bR.0", True),
        ("bL.1", "rB"),
        ("bL.2", "rT"),
        ("rT", "bR.1"),
        ("rB", "bR.2"),
        ("bR", "bR.3"),
    ])
    beta = mk([
        ("rT", "rT.0"),
        ("rB.0", "rT.1"),
        ("rB.1", "rB"),
        ("rB.2", "bL"),
        ("bL", "rT.2"),
        ("bR", "bR"),
    ])
    gamma = mk([
        ("rT.0", "rT.0-0"),
        ("rT.1-0", "rT.0-1"),
        ("rT.1-1", "rT.1"),
        ("rT.1-2", "rT.2"),
        ("rT.2", "rT.0-2"),
        ("rB", "rB"),
        ("bL", "bL"),
        ("bR", "bR"),
    ])
    delta = mk([
        ("bL", "bR"),
        ("bR", "bL"),
        ("rT", "rB"),
        ("rB", "rT"),
    ])
    epsilon = mk([
        ("bL", "bL"),
        ("rT", "rT"),
        ("rB", "rB"),
        ("bR.0-3", "bR.0"),
        ("bR.0-0", "bR.3-0", True),
        ("bR.0-1", "bR.2"),
        ("bR.0-2", "bR.1"),
        ("bR.1", "bR.3-1"),
        ("bR.2", "bR.3-2"),
        ("bR.3", "bR.3-3"),
    ])
    return {"a": alpha, "b": beta, "g": gamma, "d": delta, "e": epsilon}


def basilica_generators(system=None):
    B = system if system is not None else basilica()
    mk = lambda pairs: GraphPairDiagram.from_strings(B, pairs)
    a = mk([
        ("lp.0", "cb"),
        ("lp.1", "lp"),
        ("lp.2", "ct"),
        ("ct", "lq.0"),
        ("cb", "lq.2"),
        ("lq", "lq.1"),
    ])
    b = mk([
        ("ct", "ct.2"),
        ("cb.0", "cb"),
        ("cb.1", "lp"),
        ("cb.2", "ct.0"),
        ("lp", "ct.1"),
        ("lq", "lq"),
    ])
    c = mk([
        ("ct.0-0", "ct.0"),
        ("ct.0-1", "ct.1"),
        ("ct.0-2", "ct.2-0"),
        ("ct.1", "ct.2-1"),
        ("ct.2", "ct.2-2"),
        ("cb", "cb"),
        ("lp", "lp"),
        ("lq", "lq"),
    ])
    d = mk([
        ("ct", "cb"),
        ("cb", "ct"),
        ("lp", "lq"),
        ("lq", "lp"),
    ])
    return {"a": a, "b": b, "c": c, "d": d}


def interval_generators(system=None):
    I = system if system is not None else interval_system()
    mk = lambda pairs: GraphPairDiagram.from_strings(I, pairs)
    x0 = mk([
        ("e.0-0", "e.0"),
        ("e.0-1", "e.1-0"),
        ("e.1", "e.1-1"),
    ])
    x1 = mk([
        ("e.0", "e.0"),
        ("e.1-0-0", "e.1-0"),
        ("e.1-0-1", "e.1-1-0"),
        ("e.1-1", "e.1-1-1"),
    ])
    return {"x0": x0, "x1": x1}


def circle_generators(system=None):
    C = system if system is not None else circle_system()
    mk = lambda pairs: GraphPairDiagram.from_strings(C, pairs)
    y0 = mk([
        ("u", "u.0"),
        ("v.0", "u.1"),
        ("v.1", "v"),
    ])
    y1 = mk([
        ("u.0", "u.0-0"),
        ("u.1-0", "u.0-1"),
        ("u.1-1", "u.1"),
        ("v", "v"),
    ])
    y2 = mk([
        ("u", "v"),
        ("v", "u"),
    ])
    return {"y0": y0, "y1": y1, "y2": y2}


SYSTEM_BUILDERS = {
    "airplane": airplane,
    "basilica": basilica,
    "interval": interval_system,
    "circle": circle_system,
    "circular_airplane": circular_airplane,
}


# --- piecewise linear maps -------------------------------------------------

class PLMap:
    """A piecewise linear homeomorphism of [0,1] or of the circle R/Z.

    Stored in canonical form, so equal maps compare equal: breakpoints
    [(x, y), ...] with strictly increasing x, one exactly where the
    slope changes.  Interval maps fix 0 and 1 and keep both ends.
    Circle maps are increasing of degree one, with breakpoints at
    representatives in [0,1); a rotation, which has no change of slope,
    is stored as the single point (0, y).
    """

    def __init__(self, breaks, circle=False):
        self.circle = circle
        pts = sorted((Fraction(x) % 1, Fraction(y) % 1) if circle
                     else (Fraction(x), Fraction(y)) for x, y in breaks)
        if not circle and (not pts or pts[0] != (0, 0) or pts[-1] != (1, 1)):
            raise ValueError("interval map must fix 0 and 1")
        if len({x for x, _ in pts}) != len(pts):
            raise ValueError("duplicate breakpoint")
        if circle:
            if not pts:
                raise ValueError("empty circle map: a PL map needs at "
                                 "least one breakpoint")
            # a point's neighbours over one period of the lift: the last
            # point one period back, the first one period on
            lift = self._lift(pts)  # raises unless increasing of degree one
            (xl, yl), (xf, yf) = lift[-1], lift[0]
            nbrs = [(xl - 1, yl - 1)] + lift + [(xf + 1, yf + 1)]
        else:
            if any(y1 <= y0 for (_, y0), (_, y1) in zip(pts, pts[1:])):
                raise ValueError("not increasing")
            nbrs = [None] + pts + [None]  # an interval map keeps its ends
        self.breaks = []
        for p, u, (x, y), w in zip(pts, nbrs, nbrs[1:], nbrs[2:]):
            # a point stays exactly where the slopes on its two sides differ
            if u is None or w is None \
                    or (y - u[1]) * (w[0] - x) != (w[1] - y) * (x - u[0]):
                self.breaks.append(p)
        if not self.breaks:  # a circle map of one slope is a rotation
            x, y = pts[0]
            self.breaks = [(Fraction(0), (y - x) % 1)]
        # the pieces, over one period of the lift for a circle map: their
        # left ends as integers over their common denominator D, which
        # image bisects, and their lines as integer triples (a, b, c),
        # which take n/d to (a n + b d) / (c d)
        pts = self.breaks
        if circle:
            pts = self._lift(pts)
            pts.append((pts[0][0] + 1, pts[0][1] + 1))
        self._D = lcm(*(x.denominator for x, _ in pts[:-1]))
        self._starts = [x.numerator * (self._D // x.denominator)
                        for x, _ in pts[:-1]]
        self._lines = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            m = (y1 - y0) / (x1 - x0)
            mn, md = m.as_integer_ratio()
            qn, qd = (y0 - m * x0).as_integer_ratio()
            self._lines.append((mn * qd, qn * md, md * qd))

    @staticmethod
    def _lift(breaks):
        """Breakpoints with y lifted to an increasing sequence."""
        out = [breaks[0]]
        for x, y in breaks[1:]:
            while y <= out[-1][1]:
                y += 1
            out.append((x, y))
        if out[-1][1] >= out[0][1] + 1:
            raise ValueError("circle map not of degree one")
        return out

    def __call__(self, x):
        return Fraction(*self.image(*x.as_integer_ratio()))

    def image(self, n, d):
        """The image of n/d (d > 0) as a reduced (numerator, denominator);
        a circle map reads n/d mod 1, an interval map raises ValueError
        outside [0, 1]."""
        if self.circle:
            n %= d
        elif not 0 <= n <= d:
            raise ValueError("out of domain: %s" % Fraction(n, d))
        X = n * self._D // d  # floor(n/d * D) bisects as n/d does
        if X < self._starts[0]:  # before a circle map's first piece
            n += d
            X += self._D
        a, b, c = self._lines[bisect_right(self._starts, X) - 1]
        num, den = a * n + b * d, c * d
        if self.circle:
            num %= den
        g = gcd(num, den)
        return num // g, den // g

    def compose(self, other):
        """self after other."""
        if self.circle != other.circle:
            raise ValueError("mixed domains")
        xs = set(x for x, _ in other.breaks)
        inv = other.invert()
        xs.update(inv(x) for x, _ in self.breaks)
        return PLMap([(x, self(other(x))) for x in sorted(xs)],
                     circle=self.circle)

    def invert(self):
        return PLMap([(y, x) for x, y in self.breaks], circle=self.circle)

    def __eq__(self, other):
        return (isinstance(other, PLMap) and self.circle == other.circle
                and self.breaks == other.breaks)

    def is_identity(self):
        return self.breaks == ([(0, 0)] if self.circle else [(0, 0), (1, 1)])

    def __repr__(self):
        kind = "circle" if self.circle else "interval"
        pts = ", ".join("(%s, %s)" % (x, y) for x, y in self.breaks)
        return "PLMap[%s: %s]" % (kind, pts)
