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
        coords = part[1:-1].split(",")
        if part[:1] != "(" or part[-1:] != ")" or len(coords) != 2:
            raise ValueError("bad component path %r" % s)
        for x in coords:
            # Fraction would build 10**k for an exponent of k
            if "e" in x.lower():
                raise ValueError("bad coordinate %r: no exponent notation"
                                 % x.strip())
        try:
            out.append(tuple(map(Fraction, coords)))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % part) from None
        except ValueError:  # not a number
            raise ValueError("bad component path %r" % s) from None
    return validate_path(tuple(out))


def validate_path(path):
    check_chain(path_chain(path))
    return tuple(path)


def path_chain(path):
    """A component path's coordinates out from the center (angle,
    position, angle, ...) as a tuple of (numerator, denominator) pairs."""
    return tuple([(x.numerator, x.denominator) for t, l in path
                  for x in (t, l)])


def check_chain(chain):
    """The chain of a component path (reduced pairs, as path_chain reads
    it); ValueError unless its coordinates are dyadic, its angles in
    [0, 1), its positions in (0, 1) and no inner angle is 0 or 1/2."""
    for k in range(0, len(chain) - 1, 2):
        for n, d in chain[k:k + 2]:
            if d & (d - 1):
                raise ValueError("not dyadic: %s" % Fraction(n, d))
        (tn, td), (ln, ld) = chain[k:k + 2]
        if not 0 <= tn < td or not 0 < ln < ld:
            raise ValueError("coordinate out of range")
        if k and (tn == 0 or td == 2):
            raise ValueError("inner angle 0 or 1/2 names no ray")
    return chain


# --- address-level geometry -------------------------------------------------
#
# Positions come from airframe.geometry: a blue edge spans (source,
# target) of its ray, a boundary arc (start, width) of its circle.

def component_path(creating_blue):
    """Creating blue edge (or None) -> component path."""
    if creating_blue is None:
        return ()
    return _read_path(geometry.hang_chain(AIRPLANE, creating_blue))


def _read_path(chain):
    """The component path of a circle, from the hang chain of the blue
    edge that creates it.  Out from the center it alternates: the angle
    where a ray hangs on a circle, then the position on that ray of the
    next circle, or at last of the edge."""
    points = [Fraction(n, d) for n, d in chain]
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
    return geometry.cell_at(AIRPLANE, check_chain(path_chain(path)))


def image_path(f, red):
    """The component path of the circle that f carries red arc `red`
    onto.  That circle hangs where its creating edge sits, so the image
    arc's hang chain without its own midpoint is the edge's."""
    return _read_path(geometry.hang_chain(AIRPLANE, f.leaf_image(red))[:-1])


# --- coordinate actions of the generators ----------------------------------
#
# Each generator acts on component paths through the map its diagram
# induces: b, g, d turn the central circle, a and e slide along the
# horizontal line Hor.  chain_act applies that rule to the chain of a
# path (path_chain) in integers, through PLMap.image; act reads its
# result back as a path.  The rule agrees with map_component on the
# generator diagrams (property-tested) and makes breadth-first orbit
# search affordable.

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
    return _read_path(chain_act(name, sign, path_chain(path)))


def act_word(word, path):
    """Apply a word (list of (name, exponent), leftmost applied last)."""
    for name, exp in reversed(word):
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            path = act(name, step, path)
    return path


def chain_act(name, sign, chain):
    """Apply a generator (sign = +-1) to the chain of a path."""
    try:
        h = _generator_maps()[name, sign]
    except KeyError:
        raise ValueError("unknown generator %r" % name) from None
    if h.circle:  # a circle map turns the leading angle
        return (h.image(*chain[0]),) + chain[1:] if chain else chain
    # the circle where the path leaves Hor sits at x: a right-ray circle
    # at (1+l)/2, a left-ray one at (1-l)/2, else the central one at 1/2
    x, rest = (1, 2), chain
    if chain and chain[0] in ((0, 1), (1, 2)):
        (tn, _), (ln, ld), rest = chain[0], chain[1], chain[2:]
        x = (ld + ln if tn == 0 else ld - ln, 2 * ld)
    yn, yd = h.image(*x)
    half = yd // 2
    head = () if yd == 2 else ((0, 1), (yn - half, half)) if yn > half \
        else ((1, 2), (half - yn, half))
    # a circle's angle 0 faces the center: west on the right ray, east on
    # the central circle and the left ray.  The angle turned by 1/2 is
    # never 0 or 1/2 (the first angle of a path off Hor, or an inner
    # one), so its denominator is at least 4
    if rest and (2 * x[0] > x[1]) != (yn > half):
        (tn, td), rest = rest[0], rest[1:]
        rest = (((tn + td // 2) % td, td),) + rest
    return head + rest


def chain_act_word(word, chain):
    """act_word on the chain of a path."""
    for name, exp in reversed(word):
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            chain = chain_act(name, step, chain)
    return chain


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
    chosen first; the five-generator action on chains drives the
    search, and the witness is re-verified through diagrams when a
    table is supplied.
    """
    src = validate_path(src)
    tgt = validate_path(tgt)
    if src == tgt:
        return []
    goal, start = path_chain(src), path_chain(tgt)
    frontier = [(start, [])]
    seen = {start}
    for _ in range(max_len):
        nxt = []
        for state, word in frontier:
            for name, sign in GEN_ORDER:
                s2 = chain_act(name, -sign, state)
                if s2 in seen:
                    continue
                w2 = word + [(name, sign)]
                if s2 == goal:
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

def _value_bfs(start, goal, moves, max_cost=80, max_den=1 << 12):
    """Dijkstra on a single dyadic value; moves = [(word, fn)].  A move
    costs its letters, and no word of more than max_cost is searched."""
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


GEN_SETS = ("five", "commutator")


def _check_gen_set(gen_set):
    """ValueError unless gen_set names one of GEN_SETS."""
    if gen_set not in GEN_SETS:
        raise ValueError("unknown generator set %r: use 'five' or "
                         "'commutator'" % (gen_set,))


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
    _check_gen_set(gen_set)
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


def epsilon_sum(word):
    """The exponent sum of epsilon in a written word."""
    return sum(exp for name, exp in word if name == "e")


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


# A solver is a loop over one level, which removes the leading circle of
# a path; a path's word is its first level's words followed by the word
# of the path that level leaves.  WordTable runs that loop and keeps them.

CENTER_LEVELS = 10  # the levels solve_to_center may take
FIXING_LEVELS = 12  # the levels solve_to_center_fixing_center may take


def _center_level(cur, gen_set):
    """One level of solve_to_center: the center step, then alpha^-1
    absorbs the leading circle into the center.  Returns (the words in
    application order, the path they leave), or None."""
    step = _center_step(cur, gen_set)
    if step is None:
        return None
    words, cur = step
    return words + [[("a", -1)]], act_word([("a", -1)], cur)


def _fixing_level(cur, gen_set):
    """One level of solve_to_center_fixing_center: the center step,
    then, unless it left ((0,1/2),), an unfolding conjugate.  Returns
    (the words in application order, the path they leave, or None when
    done), or None if a word is missing."""
    step = _center_step(cur, gen_set)
    if step is None:
        return None
    words, cur = step
    if len(cur) == 1:
        return words, None
    # unfold: straighten the next turn onto the right ray while the
    # unfolding conjugate fixes the center (its circle word fixes 1/2)
    wt = _bfs_word("stab", (cur[1][0] - HALF) % 1)
    if wt is None:
        return None
    v = [("a", 1)] + list(wt) + [("a", -1)]
    return words + [v], act_word(v, cur)


def solve_to_center(path, gen_set="five"):
    """A word mapping the component to the central one.

    Returns the written word (leftmost symbol applied last), or None.
    gen_set: "five" for alpha..epsilon, "commutator" for the
    commutator-subgroup generating set.
    """
    return WordTable(gen_set).to_center(path)


def solve_to_center_fixing_center(path, gen_set="five"):
    """A word fixing the central component and mapping the given
    component to ((0,1/2)).  Used for 2-transitivity."""
    return WordTable(gen_set).to_center_fixing_center(path)


def solve_pair(c1, c2, gen_set="five"):
    """A word mapping (c1, c2) to (central, ((0,1/2)))."""
    return WordTable(gen_set).pair(c1, c2)


class WordTable:
    """The solver words over one generator set, each level solved once.

    Maps every path a solver reaches to the number of levels and the
    written word that remain from it, so a component whose first level
    leaves a known path costs that level and a lookup.  The standalone
    solvers are a fresh table; a report builds one and keeps it, since
    it keeps every path it meets.
    """

    def __init__(self, gen_set="five"):
        _check_gen_set(gen_set)
        self.gen_set = gen_set
        # {path chain: (levels, word) or None}, one table per solver
        self._center = {(): (0, ())}
        self._fixing = {None: (0, ())}

    def to_center(self, path):
        """solve_to_center(path, self.gen_set)."""
        return self._word(self._center, _center_level, CENTER_LEVELS,
                          validate_path(path))

    def to_center_fixing_center(self, path):
        """solve_to_center_fixing_center(path, self.gen_set)."""
        path = validate_path(path)
        if not path:
            raise ValueError("cannot move the central component while "
                             "fixing it")
        return self._word(self._fixing, _fixing_level, FIXING_LEVELS, path)

    def pair(self, c1, c2):
        """solve_pair(c1, c2, self.gen_set)."""
        c1, c2 = validate_path(c1), validate_path(c2)
        if c1 == c2:
            raise ValueError("components must be distinct")
        w1 = self.to_center(c1)
        if w1 is None:
            return None
        w2 = self.to_center_fixing_center(act_word(w1, c2))
        return None if w2 is None else w2 + w1

    def _word(self, table, level, budget, path):
        """The word of `path` under the solver whose one level is `level`,
        whose table ends at its goal (a path chain, or None from
        _fixing_level) and which may take `budget` levels.  Paths are
        keyed by their chains: a Fraction's hash is dear."""
        walk = []  # (chain, its level's written word) out to a known path
        cur, key = path, path_chain(path)
        while key not in table:
            if len(walk) == budget:  # out of levels
                return None
            step = level(cur, self.gen_set)
            if step is None:
                table[key] = None
                break
            words, cur = step
            walk.append((key, tuple(_flatten(words))))
            key = cur if cur is None else path_chain(cur)
        entry = table[key]
        for key, w in reversed(walk):
            if entry is not None:
                n, rest = entry
                entry = (n + 1, rest + w) if n < budget else None
            table[key] = entry
        return None if entry is None else list(entry[1])


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
    reference tuple.  k=1 checks every component, with words of cost at
    most word_bound; k=2 every ordered pair or `sample` of them drawn by
    rng, whose words are not bounded.  Returns a report dict."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    table = WordTable(gen_set)  # the solver's words for this report only
    if word_bound < 0:
        raise ValueError("word_bound must be at least 0")
    if k == 1 and sample is not None:
        raise ValueError("k=1 checks every component; sample is for k=2")
    comps = enumerate_components(max_den, max_depth)
    if k == 2 and len(comps) < 2:
        raise ValueError("k=2 needs at least two components; there is "
                         "only the central one")
    n_pairs = len(comps) * (len(comps) - 1)
    if sample is not None and not 1 <= sample <= n_pairs:
        raise ValueError("sample must be between 1 and %d, the number of "
                         "ordered pairs" % n_pairs)
    failures = []
    checked = 0
    # a commutator witness must lie in [T_A, T_A], the kernel of the
    # derivative D; D(e) = 2 and D(a..d) = 1, so its e-exponent sum is 0
    kernel = gen_set == "commutator"
    # each witness is re-applied on chains as one composed word; that
    # checks the word under the solver's own rule, which the tests check
    # against map_component through the diagrams
    if k == 1:
        for c in comps:
            word = table.to_center(c)
            checked += 1
            if word is None or word_cost(word, gen_set) > word_bound \
                    or kernel and epsilon_sum(word) \
                    or chain_act_word(word, path_chain(c)) != ():
                failures.append(format_path(c))
    else:
        for c1, c2 in ordered_pairs(comps, sample, rng):
            word = table.pair(c1, c2)
            checked += 1
            ok = (word is not None  # c2 to ((0, 1/2)), as a chain
                  and not (kernel and epsilon_sum(word))
                  and chain_act_word(word, path_chain(c1)) == ()
                  and chain_act_word(word, path_chain(c2)) == ((0, 1), (1, 2)))
            if not ok:
                failures.append((format_path(c1), format_path(c2)))
    return {"k": k, "generators": gen_set, "checked": checked,
            "failures": failures, "ok": not failures}
