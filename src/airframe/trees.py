"""Rooted trees of components and the Basilica comparison.

On the Airplane side we take the components whose path positions are
all of the form (2^k-1)/2^k (each circle in the chain sits at the
midpoint of what remains of its ray); these form an infinite-degree
rooted tree under "extend the chain by one move".  A move either turns
off at an angle onto a fresh ray or steps outward to the next midpoint
circle of the current ray.

On the Basilica side every component is a circle reached from the
central one by a chain of loops, one attachment angle per step, giving
the same kind of tree.  Matching moves angle-for-angle identifies the
two trees, and the four Airplane generators alpha..delta act exactly
like the four Basilica generators under that identification.
"""

from fractions import Fraction

from . import components as comp, geometry
from .diagram import evaluate_word
from .geometry import BASILICA, HALF
from .systems import basilica_generators

INC = "inc"  # step outward to the next midpoint circle on this ray


# --- the Airplane side -------------------------------------------------------

def frak_c_membership(path):
    """FrakC vertex ((theta_1, k_1), ...) of a component path, or None
    if some position is not of the form (2^k-1)/2^k."""
    out = []
    for t, l in comp.validate_path(path):
        if l.numerator + 1 != l.denominator:
            return None
        out.append((t, l.denominator.bit_length() - 1))
    return tuple(out)


def vertex_to_path(vertex):
    return tuple((t, Fraction(2 ** k - 1, 2 ** k)) for t, k in vertex)


def vertex_moves(vertex):
    """Move sequence of a FrakC vertex: a turn angle, then INC repeated."""
    moves = []
    for t, k in vertex:
        moves.append(t)
        moves.extend([INC] * (k - 1))
    return tuple(moves)


def moves_to_vertex(moves):
    out = []
    for m in moves:
        if m == INC:
            if not out:
                raise ValueError("no ray to step out on")
            t, k = out[-1]
            out[-1] = (t, k + 1)
        else:
            out.append((m, 1))
    return tuple(out)


def airplane_tree_action(table, word, vertex):
    """Act on a FrakC vertex by a word over alpha..delta."""
    if any(name == "e" for name, _ in word):
        raise ValueError("epsilon does not preserve the component tree")
    return _airplane_image(evaluate_word(table, word),
                           comp.red_cell(vertex_to_path(vertex)))


def _airplane_image(f, red):
    """The FrakC vertex of the image of a vertex, given by its red cell."""
    img = comp.image_path(f, red)
    out = frak_c_membership(img)
    if out is None:
        raise AssertionError("image left the midpoint-chain tree: %s"
                             % comp.format_path(img))
    return out


def _vertex_chain(moves):
    """comp.path_chain of the path of the FrakC vertex with these moves:
    a turn t appends t and the position 1/2, INC steps the last position
    (2^k-1)/2^k out to (2^(k+1)-1)/2^(k+1)."""
    chain = ()
    for m in moves:
        if m == INC:
            n, d = chain[-1]
            chain = chain[:-1] + ((2 * n + 1, 2 * d),)
        else:
            chain += ((m.numerator, m.denominator), (1, 2))
    return chain


def _identified(chain):
    """identify(vertex_moves(v)) as reduced pairs, for the FrakC vertex
    v whose component path reads as `chain` (comp.path_chain).  Fails as
    _airplane_image does when some position is not (2^k-1)/2^k, so that
    the chain names no FrakC vertex."""
    out = []
    for k in range(0, len(chain) - 1, 2):
        (tn, td), (ln, ld) = chain[k], chain[k + 1]
        if ln + 1 != ld:
            raise AssertionError("image left the midpoint-chain tree: %s"
                                 % comp.format_path(comp._read_path(chain)))
        # a first turn t is (1/2 - t) mod 1, a later one (1 - t) mod 1
        out.append(geometry.reduced(-tn % td, td) if k else
                   geometry.reduced((td - 2 * tn) % (2 * td), 2 * td))
        out.extend([(1, 2)] * (ld.bit_length() - 2))  # 1/2 per step out
    return out


# --- the Basilica side -------------------------------------------------------
#
# Components are the central circle (None) or the circle bounded by a
# loop edge.  Circle coordinates: the top arc ct covers [0,1/2] with
# the vertex P at 0; a loop's own circle has the contact point at 0.

def basilica_vertex(loop_addr):
    """Component -> chain of attachment angles from the center: the hang
    chain of its loop cell, or of any cell on its circle, but for the
    cell's own midpoint."""
    if loop_addr is None:
        return ()
    return tuple(Fraction(n, d)
                 for n, d in geometry.hang_chain(BASILICA, loop_addr)[:-1])


def _basilica_image(g, cell):
    """basilica_vertex(g.leaf_image(cell)) as reduced (numerator,
    denominator) pairs."""
    return geometry.hang_chain(BASILICA, g.leaf_image(cell))[:-1]


def vertex_to_loop(vertex):
    """Chain of attachment angles -> loop address (None = central)."""
    return geometry.cell_at(BASILICA, [(x.numerator, x.denominator)
                                       for x in vertex]) if vertex else None


def map_basilica_component(f, loop_addr):
    """Image component of a Basilica circle under a diagram."""
    cell = geometry.cell_at(BASILICA, ()) if loop_addr is None else loop_addr
    return geometry.line_of(BASILICA, f.leaf_image(cell))


def basilica_tree_action(table, word, vertex):
    f = evaluate_word(table, word)
    return basilica_vertex(map_basilica_component(f, vertex_to_loop(vertex)))


# --- the identification and the intertwine check -----------------------------

def identify(vertex_moves_seq):
    """Airplane move sequence -> Basilica attachment-angle sequence."""
    out = []
    for i, m in enumerate(vertex_moves_seq):
        if m == INC:
            out.append(HALF)
        elif i == 0:
            out.append((HALF - m) % 1)
        else:
            out.append((1 - m) % 1)
    return tuple(out)


CANONICAL_PAIRING = [("a", "a"), ("b", "b"), ("g", "c"), ("d", "d")]


def truncated_vertices(depth, bound):
    """FrakC vertices with at most `depth` moves, every turn angle of
    denominator at most `bound`."""
    turns = [Fraction(j, bound) for j in range(bound)]
    inner = [INC] + [t for t in turns if t not in (0, HALF)]
    out, level = [()], [()]
    for _ in range(depth):
        level = [moves + (m,) for moves in level
                 for m in (inner if moves else turns)]
        out += level
    return out


def intertwine_check(depth, branch_denominator_bound, pairing=None):
    """Check on the truncated trees that each paired generator acts the
    same way on both sides of the identification: the Airplane image of
    a vertex comes from the integer action on its chain
    (comp.chain_act), the Basilica image from the generator's diagram.
    Returns a report."""
    if depth < 0:
        raise ValueError("depth must be at least 0")
    bound = branch_denominator_bound
    if bound < 1:
        raise ValueError("bound must be a power of two of at least 1")
    if bound & (bound - 1):
        raise ValueError("not dyadic: %s" % Fraction(1, bound))
    bt = basilica_generators()
    pairs = pairing if pairing is not None else CANONICAL_PAIRING
    checks = []  # every name is checked before any vertex
    for aname, bname in pairs:
        if aname == "e":
            raise ValueError("epsilon does not preserve the component tree")
        if aname not in dict(CANONICAL_PAIRING):
            raise ValueError("unknown generator %r" % (aname,))
        checks.append((aname, bname, evaluate_word(bt, [(bname, 1)])))
    mismatches = []
    checked = 0
    for moves in truncated_vertices(depth, bound):
        chain = _vertex_chain(moves)
        cell = geometry.cell_at(BASILICA, _identified(chain))
        for aname, bname, g in checks:
            checked += 1
            left = _identified(comp.chain_act(aname, 1, chain))
            right = _basilica_image(g, cell)
            if left != right:
                mismatches.append({
                    "vertex": [str(m) for m in moves],
                    "pair": "%s~%s" % (aname, bname),
                    "airplane_image": [str(Fraction(*m)) for m in left],
                    "basilica_image": [str(Fraction(*m)) for m in right],
                })
    return {"depth": depth, "bound": bound,
            "checked": checked, "mismatches": mismatches,
            "ok": not mismatches}
