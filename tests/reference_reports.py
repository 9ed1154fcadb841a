"""Reference reports, kept apart from the per-report work that airframe
shares between tree nodes: every component is solved alone by the
standalone solvers and its witness re-applied with the Fraction action
below (a commutator witness is also checked to lie in [T_A, T_A]
through its diagram), and every tree vertex is located from the center
through its path and identify, with its images read back as Fractions.
Tests compare the library's transitivity and intertwine reports, and
its integer action on chains, against these."""

from fractions import Fraction

from airframe import components as comp, geometry, trees
from airframe.analysis import is_in_commutator
from airframe.diagram import evaluate_word
from airframe.geometry import HALF
from airframe.systems import airplane_generators, basilica_generators

CENTER, TO_RAY = (), ((Fraction(0), Fraction(1, 2)),)


def act(name, sign, path):
    """Apply a generator (sign = +-1) to a component path."""
    try:
        h = comp._generator_maps()[name, sign]
    except KeyError:
        raise ValueError("unknown generator %r" % name) from None
    if h.circle:
        if not path:
            return path
        (t, l), rest = path[0], path[1:]
        return ((h(t), l),) + rest
    # the circle where the path leaves Hor sits at x: a right-ray circle
    # at (1+l)/2, a left-ray one at (1-l)/2, else the central one at 1/2
    x, rest = HALF, path
    if path and path[0][0] in (0, HALF):
        (t, l), rest = path[0], path[1:]
        x = (1 + l) / 2 if t == 0 else (1 - l) / 2
    y = h(x)
    head = () if y == HALF else ((Fraction(0), 2 * y - 1),) if y > HALF \
        else ((HALF, 1 - 2 * y),)
    # a circle's angle 0 faces the center: west on the right ray, east on
    # the central circle and the left ray
    if rest and (x > HALF) != (y > HALF):
        (t, l), rest = rest[0], rest[1:]
        rest = (((t + HALF) % 1, l),) + rest
    return head + rest


def act_word(word, path):
    """Apply a word (list of (name, exponent), leftmost applied last)."""
    for name, exp in reversed(word):
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            path = act(name, step, path)
    return path


def check_k_transitivity(k, gen_set="five", max_den=8, word_bound=30,
                         max_depth=2, sample=None, rng=None):
    """components.check_k_transitivity, one standalone solve per tuple."""
    comps = comp.enumerate_components(max_den, max_depth)
    table = airplane_generators()

    def outside(word):  # a commutator witness outside [T_A, T_A]
        return gen_set == "commutator" \
            and not is_in_commutator(evaluate_word(table, word))
    failures = []
    checked = 0
    if k == 1:
        for c in comps:
            word = comp.solve_to_center(c, gen_set)
            checked += 1
            if word is None or comp.word_cost(word, gen_set) > word_bound \
                    or outside(word) or act_word(word, c) != CENTER:
                failures.append(comp.format_path(c))
    else:
        for c1, c2 in comp.ordered_pairs(comps, sample, rng):
            word = comp.solve_pair(c1, c2, gen_set)
            checked += 1
            if word is None or outside(word) \
                    or act_word(word, c1) != CENTER \
                    or act_word(word, c2) != TO_RAY:
                failures.append((comp.format_path(c1), comp.format_path(c2)))
    return {"k": k, "generators": gen_set, "checked": checked,
            "failures": failures, "ok": not failures}


def located(moves):
    """The Airplane red cell and the Basilica cell of a vertex, each
    found from the center: the red cell through the vertex's component
    path, the Basilica cell through identify."""
    red = comp.red_cell(trees.vertex_to_path(trees.moves_to_vertex(moves)))
    cell = geometry.cell_at(trees.BASILICA, [
        (x.numerator, x.denominator) for x in trees.identify(moves)])
    return red, cell


def intertwine_check(depth, bound, pairing=None):
    """trees.intertwine_check, each vertex located from the center."""
    at, bt = airplane_generators(), basilica_generators()
    mismatches = []
    checked = 0
    for moves in trees.truncated_vertices(depth, bound):
        red, cell = located(moves)
        for aname, bname in pairing or trees.CANONICAL_PAIRING:
            f = evaluate_word(at, [(aname, 1)])
            g = evaluate_word(bt, [(bname, 1)])
            checked += 1
            left = trees.identify(trees.vertex_moves(
                trees._airplane_image(f, red)))
            right = trees.basilica_vertex(g.leaf_image(cell))
            if left != right:
                mismatches.append({
                    "vertex": [str(m) for m in moves],
                    "pair": "%s~%s" % (aname, bname),
                    "airplane_image": [str(x) for x in left],
                    "basilica_image": [str(x) for x in right],
                })
    return {"depth": depth, "bound": bound,
            "checked": checked, "mismatches": mismatches,
            "ok": not mismatches}
