"""Components of the Airplane limit space.

A component (a circle of the Airplane) is identified either by the
blue edge whose expansion created it (None for the central circle) or
by its component path: a sequence of (angle, position) pairs, one per
turn the connecting path takes.  Angles use the circle coordinate with
0 pointing back toward the center (for the central circle: along the
right ray); positions on a ray run from 0 at the host circle to 1 at
the tip.
"""

import functools
import heapq
from fractions import Fraction

from .core import parent
from . import analysis, geometry
from .geometry import AIRPLANE, HALF
from .systems import airplane_generators


def format_path(path):
    if not path:
        return "central"
    return ";".join("(%s,%s)" % (t, l) for t, l in path)


def parse_path(s):
    s = s.strip()
    if s in ("central", "", "()"):
        return ()
    out = []
    for part in s.split(";"):
        part = part.strip()
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError("bad component path %r" % s)
        t, l = part[1:-1].split(",")
        for x in (t, l):
            # Fraction would build 10**k for an exponent of k
            if "e" in x.lower():
                raise ValueError("bad coordinate %r: no exponent notation"
                                 % x.strip())
        try:
            out.append((Fraction(t), Fraction(l)))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % part) from None
    return validate_path(tuple(out))


def validate_path(path):
    for k, (t, l) in enumerate(path):
        for x in (t, l):
            if x.denominator & (x.denominator - 1):
                raise ValueError("not dyadic: %s" % x)
        if not (0 <= t < 1) or not (0 < l < 1):
            raise ValueError("coordinate out of range")
        if k > 0 and t in (0, HALF):
            raise ValueError("inner angle 0 or 1/2 names no ray")
    return tuple(path)


# --- address-level geometry -------------------------------------------------
#
# Positions come from airframe.geometry: a blue edge spans (source,
# target) of its ray, a boundary arc (start, width) of its circle.

def component_path(creating_blue):
    """Creating blue edge (or None) -> component path."""
    if creating_blue is None:
        return ()
    return _read_path(geometry.hang_points(AIRPLANE, creating_blue))


def _read_path(points):
    """The component path of a circle, from the hang points of the blue
    edge that creates it.  Out from the edge they alternate: the edge's
    position on its ray, the angle where that ray hangs on a circle, the
    position where that circle hangs on the next ray, and so on."""
    points = points[::-1]
    return tuple(zip(points[::2], points[1::2]))


def path_to_component(path):
    """Component path -> creating blue edge (or None)."""
    return parent(red_cell(path))


def map_component(f, path):
    """The image component path of a component under a diagram."""
    return image_path(f, red_cell(path))


def red_cell(path):
    """A red arc on the circle of a component: the cell whose image
    under a diagram names the image component."""
    return geometry.cell_at(AIRPLANE, [x for step in validate_path(path)
                                       for x in step])


def image_path(f, red):
    """The component path of the circle that f carries red arc `red`
    onto.  That circle hangs where its creating edge sits, so past the
    image arc's own midpoint its hang points are the edge's."""
    return _read_path(geometry.hang_points(AIRPLANE, f.leaf_image(red))[1:])


# --- coordinate actions of the generators ----------------------------------
#
# Each generator acts on component paths through the map its diagram
# induces: b, g, d turn the central circle, a and e slide along the
# horizontal line Hor.  These agree with map_component on the generator
# diagrams (property-tested) and make breadth-first orbit search
# affordable.

@functools.cache
def _generator_maps():
    """{(name, sign): PL map}: the circle maps of b, g, d on the central
    circle and the interval maps of a, e on Hor."""
    g = airplane_generators()
    maps = {name: analysis.induced_boundary_map(g[name]) for name in "bgd"}
    maps.update((name, analysis.induced_hor_map(g[name])) for name in "ae")
    return {(name, sign): m if sign > 0 else m.invert()
            for name, m in maps.items() for sign in (1, -1)}


def act(name, sign, path):
    """Apply a generator (sign = +-1) to a component path."""
    try:
        h = _generator_maps()[name, sign]
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


# --- alignment --------------------------------------------------------------

def in_route_from_center(x, c):
    """Is component x traveled through when walking from the center
    out to component c?"""
    if x == () or x == c:
        return True
    m = len(x)
    if m > len(c) or x[:m - 1] != c[:m - 1]:
        return False
    return x[m - 1][0] == c[m - 1][0] and x[m - 1][1] <= c[m - 1][1]


def join_component(ci, cj):
    """The outermost component common to both center-out routes."""
    m = 0
    while m < len(ci) and m < len(cj) and ci[m] == cj[m]:
        m += 1
    if m == len(ci):
        return ci
    if m == len(cj):
        return cj
    if ci[m][0] == cj[m][0]:
        return ci[:m] + ((ci[m][0], min(ci[m][1], cj[m][1])),)
    return ci[:m]


def on_route(x, ci, cj):
    j = join_component(ci, cj)
    if not (in_route_from_center(x, ci) or in_route_from_center(x, cj)):
        return False
    return in_route_from_center(j, x) or j == x


def aligned(components):
    """Is there a pair whose connecting path visits every component?
    Returns the ordered tuple (or None)."""
    cs = [validate_path(c) for c in components]
    if len(set(cs)) != len(cs):
        raise ValueError("duplicate components")
    if len(cs) <= 2:
        return tuple(cs)
    for i in range(len(cs)):
        for j in range(len(cs)):
            if i == j:
                continue
            rest = [c for k, c in enumerate(cs) if k not in (i, j)]
            if all(on_route(c, cs[i], cs[j]) for c in rest):
                mid = sorted(rest, key=lambda c: (
                    0 if in_route_from_center(c, cs[i]) else 1,
                    -len(c) if in_route_from_center(c, cs[i]) else len(c)))
                return (cs[i],) + tuple(mid) + (cs[j],)
    return None


# --- orbit search -----------------------------------------------------------

GEN_ORDER = [("a", 1), ("b", 1), ("g", 1), ("d", 1), ("e", 1),
             ("a", -1), ("b", -1), ("g", -1), ("d", -1), ("e", -1)]


def orbit_search(src, tgt, max_len, table=None):
    """Shortlex-least word w with w(src) = tgt, |w| <= max_len.

    Searches backward from tgt so that the first written symbol is
    chosen first; the standard five-generator coordinate action drives
    the search, and the witness is re-verified through diagrams when a
    table is supplied.
    """
    src = validate_path(src)
    tgt = validate_path(tgt)
    frontier = [(tgt, [])]
    seen = {tgt}
    if src == tgt:
        return []
    for _ in range(max_len):
        nxt = []
        for state, word in frontier:
            for name, sign in GEN_ORDER:
                s2 = act(name, -sign, state)
                if s2 in seen:
                    continue
                w2 = word + [(name, sign)]
                if s2 == src:
                    if table is not None:
                        from .diagram import evaluate_word
                        f = evaluate_word(table, w2)
                        assert map_component(f, src) == tgt
                    return w2
                seen.add(s2)
                nxt.append((s2, w2))
        frontier = nxt
    return None


# --- constructive transitivity ----------------------------------------------
#
# Plain BFS cannot reach the word lengths transitivity needs, so the
# solver works level by level: rotate the leading angle to 0 with a
# circle word, slide the leading position to 1/2 with right-ray words,
# then absorb the leading circle into the center with alpha^-1.

def _value_bfs(start, goal, moves, max_cost=40, max_den=1 << 12):
    """Dijkstra on a single dyadic value; moves = [(word, fn)]."""
    heap = [(0, 0, start, [])]
    seen = {}
    tie = 0
    while heap:
        cost, _, val, word = heapq.heappop(heap)
        if val == goal:
            return word
        if seen.get(val, 10 ** 9) < cost:
            continue
        for mword, fn in moves:
            try:
                v2 = fn(val)
            except ValueError:
                continue
            if v2.denominator > max_den:
                continue
            c2 = cost + len(mword)
            if c2 <= max_cost and c2 < seen.get(v2, 10 ** 9):
                seen[v2] = c2
                tie += 1
                heapq.heappush(heap, (c2, tie, v2, word + [mword]))
    return None


def _flatten(words):
    """[word, word, ...] applied in order -> single written word."""
    out = []
    for w in reversed(words):
        out.extend(w)
    return out


# The commutator generating set: [d,e], [e^-1, e^-1 a] and their
# inverses, written in the five generators; each counts as one symbol.
COMMUTATOR_SYMBOLS = (
    (("d", 1), ("e", 1), ("d", 1), ("e", -1)),
    (("e", 1), ("d", 1), ("e", -1), ("d", 1)),
    (("e", -1), ("e", -1), ("a", 1), ("e", 1), ("a", -1), ("e", 1)),
    (("e", -1), ("a", 1), ("e", -1), ("a", -1), ("e", 1), ("e", 1)),
)


# The move words of each solver kind (see _bfs_word) in the order the
# search tries them, which breaks its ties between equally short words.
_MOVES = {
    "theta": [[(n, s)] for n in "bgd" for s in (1, -1)],
    "stab": [[("g", 1)], [("g", -1)]] + [[("d", 1), (n, s), ("d", 1)]
                                         for n in "bg" for s in (1, -1)],
    "five": [[("e", 1)], [("e", -1)], [("a", 1), ("e", 1), ("a", -1)],
             [("a", 1), ("e", -1), ("a", -1)]],
    "commutator": list(COMMUTATOR_SYMBOLS),
}


def _value_fn(word, angle):
    """A word's action on one coordinate, via the path action: on the
    angle t of ((t, 1/2),) if angle, else on the position l of ((0, l),)."""
    def fn(v):
        out = act_word(word, ((v, HALF),) if angle else ((Fraction(0), v),))
        if len(out) != 1 or not angle and out[0][0] != 0:
            raise ValueError("left the ray")
        return out[0][0 if angle else 1]
    return fn


def word_cost(word, gen_set):
    """Symbol count; commutator generators count as one symbol each."""
    if gen_set == "five":
        return len(word)
    cost = 0
    i = 0
    word = tuple(word)
    while i < len(word):
        cost += 1
        i += next((len(pat) for pat in COMMUTATOR_SYMBOLS
                   if word[i:i + len(pat)] == pat), 1)
    return cost


# Distinct (kind, start value) keys of the solvers; a full 1- and
# 2-transitivity run at denominator 8 and depth 2 makes about 50.
BFS_WORDS_CACHED = 1024


@functools.lru_cache(maxsize=BFS_WORDS_CACHED)
def _bfs_word(kind, start):
    """The cheapest written word (a tuple) moving one coordinate to its
    goal, or None.  kind "theta" turns an angle to 0, "stab" does so
    fixing angle 1/2, "five" or "commutator" slides a right-ray position
    to 1/2 with that generating set."""
    angle = kind in ("theta", "stab")
    moves = [(w, _value_fn(w, angle)) for w in _MOVES[kind]]
    word = _value_bfs(start, Fraction(0) if angle else HALF, moves)
    return None if word is None else tuple(_flatten(word))


def _center_step(cur, gen_set):
    """Rotate the leading angle to 0, then slide the leading position to
    1/2: returns (the two words, the new path), or None."""
    w1 = _bfs_word("theta", cur[0][0])
    if w1 is None:
        return None
    cur = act_word(w1, cur)
    w2 = _bfs_word(gen_set, cur[0][1])
    if w2 is None:
        return None
    return [w1, w2], act_word(w2, cur)


def solve_to_center(path, gen_set="five"):
    """A word mapping the component to the central one.

    Returns the written word (leftmost symbol applied last), or None.
    gen_set: "five" for alpha..epsilon, "commutator" for the
    commutator-subgroup generating set.
    """
    cur = validate_path(path)
    pieces = []  # words in application order
    for _ in range(10):
        if not cur:
            break
        step = _center_step(cur, gen_set)
        if step is None:
            return None
        words, cur = step
        cur = act_word([("a", -1)], cur)
        pieces += words + [[("a", -1)]]
    return None if cur else _flatten(pieces)


def solve_to_center_fixing_center(path):
    """A word fixing the central component and mapping the given
    component to ((0,1/2)).  Used for 2-transitivity."""
    cur = validate_path(path)
    if not cur:
        raise ValueError("cannot move the central component while fixing it")
    pieces = []
    for _ in range(12):
        step = _center_step(cur, "five")
        if step is None:
            return None
        words, cur = step
        pieces += words
        if len(cur) == 1:
            return _flatten(pieces)
        # unfold: straighten the next turn onto the right ray while the
        # unfolding conjugate fixes the center (its circle word fixes 1/2)
        wt = _bfs_word("stab", (cur[1][0] - HALF) % 1)
        if wt is None:
            return None
        v = [("a", 1)] + list(wt) + [("a", -1)]
        cur = act_word(v, cur)
        pieces.append(v)
    return None


def solve_pair(c1, c2):
    """A word mapping (c1, c2) to (central, ((0,1/2)))."""
    c1, c2 = validate_path(c1), validate_path(c2)
    if c1 == c2:
        raise ValueError("components must be distinct")
    w1 = solve_to_center(c1) if c1 else []
    if w1 is None:
        return None
    c2m = act_word(w1, c2)
    w2 = solve_to_center_fixing_center(c2m)
    if w2 is None:
        return None
    return w2 + w1


# --- transitivity reports ----------------------------------------------------

def enumerate_components(max_den, max_depth):
    """All component paths with coordinate denominators <= max_den and
    depth <= max_depth."""
    fracs = sorted({Fraction(k, max_den) for k in range(1, max_den)})
    first = [Fraction(0)] + fracs
    deeper = [t for t in fracs if t != HALF]
    out = [()]
    level = [()]
    for depth in range(max_depth):
        nxt = []
        for base in level:
            angles = first if depth == 0 else deeper
            for t in angles:
                for l in fracs:
                    nxt.append(base + ((t, l),))
        out.extend(nxt)
        level = nxt
    return out


def ordered_pairs(items, sample=None, rng=None):
    """The ordered pairs of distinct items, in row order, or `sample` of
    them drawn by rng.sample as if from the full list (which is never
    built: sample depends only on the population's length)."""
    n = len(items)
    picks = range(n * (n - 1))
    if sample is not None:
        picks = rng.sample(picks, sample)
    for p in picks:
        i, j = divmod(p, n - 1)
        yield items[i], items[j + (j >= i)]


def check_k_transitivity(k, gen_set="five", max_den=8, word_bound=30,
                         max_depth=2, sample=None, rng=None):
    """Check that ordered k-tuples of components map to a fixed
    reference tuple within the word bound.  Returns a report dict."""
    comps = enumerate_components(max_den, max_depth)
    failures = []
    checked = 0
    if k == 1:
        for c in comps:
            word = solve_to_center(c, gen_set)
            checked += 1
            if word is None or word_cost(word, gen_set) > word_bound \
                    or act_word(word, c) != ():
                failures.append(format_path(c))
    elif k == 2:
        for c1, c2 in ordered_pairs(comps, sample, rng):
            word = solve_pair(c1, c2)
            checked += 1
            ok = (word is not None
                  and act_word(word, c1) == ()
                  and act_word(word, c2) == ((Fraction(0), HALF),))
            if not ok:
                failures.append((format_path(c1), format_path(c2)))
    else:
        raise ValueError("k must be 1 or 2")
    return {"k": k, "generators": gen_set, "checked": checked,
            "failures": failures, "ok": not failures}
