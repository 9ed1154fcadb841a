"""Airplane-specific invariants.

Geometry conventions: the horizontal line Hor carries the coordinate
[0,1] with the left ray tip at 0, the central circle at 1/2 and the
right ray tip at 1.  The central circle carries the circle coordinate
with 0 at the right vertex R, increasing counterclockwise through the
top arc rT, so rT covers [0,1/2] and rB covers [1/2,1].
"""

from fractions import Fraction

from . import geometry
from .core import format_address
from .geometry import AIRPLANE, HALF
from .systems import PLMap


# --- blue edge geometry ----------------------------------------------------

def blue_edge_length(system, addr):
    """The length of a blue edge: base blues and fresh rays have length
    one, blue halves have half their parent's length."""
    color, s, t, d, _ = geometry.walk(system, addr)
    if color != "blue":
        raise ValueError("not blue: %s" % format_address(addr))
    return Fraction(abs(t - s), d)


# --- the derivative homomorphism D ----------------------------------------

def log2(x):
    """k with x = 2**k, read off x's reduced numerator and denominator."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("not positive: %s" % x)
    n, d = x.numerator, x.denominator
    if n & (n - 1) or d & (d - 1):
        raise ValueError("not a power of two")
    return n.bit_length() - d.bit_length()


def _extremal_derivatives(f):
    """D_p at each extreme p of f: the length of a domain leaf whose
    target is a ray tip over the length of its image.  A valid diagram
    maps tips to tips and expanding an extreme pair halves both lengths,
    so f need not be reduced."""
    for a, color, s, t, d in geometry.leaf_positions(f.domain):
        if color == "blue" and t == d:
            b, _ = f.mapping[a]
            yield Fraction(t - s, d) / blue_edge_length(f.system, b)


def global_derivative(f):
    """The product of the extremal derivatives."""
    out = Fraction(1)
    for dp in _extremal_derivatives(f):
        out *= dp
    return out


def abelianization_image(f):
    return log2(global_derivative(f))


def is_in_commutator(f):
    return global_derivative(f) == 1


def is_in_E(f):
    """Trivial derivative at every extreme (not just in product)."""
    return all(dp == 1 for dp in _extremal_derivatives(f))


def semidirect_split(f, epsilon):
    """Write f = c o epsilon^k with c in the commutator subgroup."""
    k = abelianization_image(f) // abelianization_image(epsilon)
    c = f.compose(epsilon.power(-k))
    return c, k


# --- the central circle boundary ------------------------------------------

def is_central_arc(addr):
    return geometry.line_of(AIRPLANE, addr) is None


def arc_interval(addr):
    """(start, width) of a central circle arc."""
    if not is_central_arc(addr):
        raise ValueError("not a central arc: %s" % format_address(addr))
    s, t = geometry.span(AIRPLANE, addr)
    return s, t - s


def is_in_rist_C0(f):
    """Rigid outside the central circle: only central arcs expanded."""
    f = f.reduce()
    nodes = set(f.domain.internal) | set(f.range.internal)
    return all(is_central_arc(a) for a in nodes)


def induced_boundary_map(f):
    """The circle map induced on the central circle boundary."""
    f = f.reduce()
    if not is_in_rist_C0(f):
        raise ValueError("not in rist(C0)")
    breaks = []
    for a, (b, rev) in f.mapping.items():
        if not is_central_arc(a):
            continue
        if rev:
            raise ValueError("reversed arc pair")
        sa, _ = arc_interval(a)
        sb, _ = arc_interval(b)
        breaks.append((sa, sb))
    return PLMap(breaks, circle=True)


# --- the horizontal line ---------------------------------------------------

def is_hor_blue(addr):
    return geometry.line_of(AIRPLANE, addr) in (("bL", ()), ("bR", ()))


def hor_span(addr):
    """(source position, target position) of a horizontal blue edge: its
    ray span, with the right ray's 0..1 at Hor's 1/2..1 and the left
    ray's at 1/2..0."""
    if not is_hor_blue(addr):
        raise ValueError("not horizontal: %s" % format_address(addr))
    sign = 1 if addr[0] == "bR" else -1
    s, t = geometry.span(AIRPLANE, addr)
    return HALF + sign * s / 2, HALF + sign * t / 2


def induced_hor_map(f):
    """The interval map induced on the horizontal line, or None if f
    does not stabilize it rigidly off-line."""
    f = f.reduce()
    nodes = set(f.domain.internal) | set(f.range.internal)
    if not all(is_hor_blue(a) for a in nodes):
        return None
    pts = {}
    for a, (b, rev) in f.mapping.items():
        if not is_hor_blue(a):
            continue
        if not is_hor_blue(b):
            return None
        ps, pt = hor_span(a)
        qs, qt = hor_span(b)
        if rev:
            qs, qt = qt, qs
        for x, y in ((ps, qs), (pt, qt)):
            if x in pts and pts[x] != y:
                return None
            pts[x] = y
    try:
        return PLMap(sorted(pts.items()))
    except ValueError:
        return None


def is_in_rist_Hor(f):
    return induced_hor_map(f) is not None
