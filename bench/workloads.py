"""The three benchmark workloads: seeded inputs, the timed op, output checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned.  Inputs come only from the seed; the
program sees the generated words, component paths and argv lists.

The checks do not trust the code under test where the benchmark can
compute the answer itself: the flattened letters and the epsilon exponent
of a word come from the benchmark's own word model, reducedness from its
own model of the Airplane rules, and the identity test from the bare
mapping.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

GENERATORS = "abgde"
LONG_NAMES = {"a": "alpha", "b": "beta", "g": "gamma", "d": "delta",
              "e": "epsilon"}
HALF = Fraction(1, 2)


# --- the benchmark's own word model -------------------------------------------
#
# Nodes: ("atom", name, shown), ("inv", x, suffix), ("pow", x, k),
# ("conj", x, y), ("comm", x, y), ("seq", [x, ...]).  gen_expr builds a
# node whose flattened form has exactly n letters.

def gen_expr(rng, n, depth=0):
    if n == 1:
        name = rng.choice(GENERATORS)
        shown = LONG_NAMES[name] if rng.random() < 0.1 else name
        atom = ("atom", name, shown)
        if rng.random() < 0.4:
            return ("inv", atom, rng.choice(["'", "^-1"]))
        return atom
    if depth >= 4:
        return ("seq", [gen_expr(rng, 1) for _ in range(n)])
    kinds = ["seq", "seq", "inv"]
    ks = [k for k in range(2, 7) if n % k == 0]
    if ks:
        kinds.append("pow")
    if n >= 3:
        kinds.append("conj")
    if n >= 4 and n % 2 == 0:
        kinds.append("comm")
    kind = rng.choice(kinds)
    if kind == "seq":
        m = rng.randint(2, min(n, 4))
        cuts = sorted(rng.sample(range(1, n), m - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        return ("seq", [gen_expr(rng, s, depth + 1) for s in sizes])
    if kind == "inv":
        return ("inv", gen_expr(rng, n, depth + 1), rng.choice(["'", "^-1"]))
    if kind == "pow":
        k = rng.choice(ks)
        return ("pow", gen_expr(rng, n // k, depth + 1), k)
    if kind == "conj":
        y = rng.randint(1, (n - 1) // 2)
        return ("conj", gen_expr(rng, n - 2 * y, depth + 1),
                gen_expr(rng, y, depth + 1))
    x = rng.randint(1, n // 2 - 1)
    return ("comm", gen_expr(rng, x, depth + 1),
            gen_expr(rng, n // 2 - x, depth + 1))


def render(e):
    kind = e[0]
    if kind == "atom":
        return e[2]
    if kind == "inv":
        return _primary(e[1]) + e[2]
    if kind == "pow":
        return "%s^%d" % (_primary(e[1]), e[2])
    if kind == "conj":
        return "%s^%s" % (_primary(e[1]), _primary(e[2]))
    if kind == "comm":
        return "[%s, %s]" % (render(e[1]), render(e[2]))
    return " ".join("(%s)" % render(p) if p[0] == "seq" else render(p)
                    for p in e[1])


def _primary(e):
    return render(e) if e[0] in ("atom", "comm") else "(%s)" % render(e)


def letters(e):
    """Flattened word: [(name, +-1)] in written order."""
    kind = e[0]
    if kind == "atom":
        return [(e[1], 1)]
    if kind == "inv":
        return inverse(letters(e[1]))
    if kind == "pow":
        return letters(e[1]) * e[2]
    if kind == "conj":
        x, y = letters(e[1]), letters(e[2])
        return inverse(y) + x + y
    if kind == "comm":
        x, y = letters(e[1]), letters(e[2])
        return x + y + inverse(x) + inverse(y)
    return [lt for p in e[1] for lt in letters(p)]


def inverse(word):
    return [(n, -s) for n, s in reversed(word)]


def e_exponent(word):
    """log2 of the derivative: only epsilon has D = 2."""
    return sum(s for n, s in word if n == "e")


class Word:
    def __init__(self, expr, xcheck=True):
        self.src = render(expr)
        self.letters = letters(expr)
        self.e_exp = e_exponent(self.letters)
        self.xcheck = xcheck


def random_word(rng, n):
    return Word(gen_expr(rng, n))


# --- the benchmark's own model of the Airplane rules --------------------------
#
# Colors of the base edges and of each rule's children, and the child
# matching of a cell expanded end-for-end reversed (the rule graph's
# symmetry that swaps its initial and terminal vertex; the blue rule's
# circle arcs swap straight, as a half turn).

BASE_COLORS = {"bL": "blue", "bR": "blue", "rT": "red", "rB": "red"}
CHILD_COLORS = {"red": ["red", "red", "blue"],
                "blue": ["blue", "red", "red", "blue"]}
REVERSAL = {"red": [(1, True), (0, True), (2, False)],
            "blue": [(3, False), (2, False), (1, False), (0, False)]}


def color_of(addr):
    base, path = addr
    color = BASE_COLORS[base]
    for i in path:
        color = CHILD_COLORS[color][i]
    return color


def reducible_at(mapping, a):
    """Do the children of domain node a form a collapsible pair?"""
    color = color_of(a)
    n = len(CHILD_COLORS[color])
    images = [mapping.get((a[0], a[1] + (i,))) for i in range(n)]
    if any(im is None for im in images):
        return False
    parents = {(b[0], b[1][:-1]) for b, _ in images if b[1]}
    if len(parents) != 1 or any(not b[1] for b, _ in images):
        return False
    got = [(b[1][-1], r) for b, r in images]
    return got in ([(i, False) for i in range(n)], REVERSAL[color])


def is_reduced(mapping):
    nodes = {(a[0], a[1][:k]) for a in mapping for k in range(len(a[1]))}
    return not any(reducible_at(mapping, a) for a in nodes)


def is_identity_mapping(f):
    return (sorted(f.mapping) == sorted((b, ()) for b in BASE_COLORS)
            and all(a == b and not r for a, (b, r) in f.mapping.items()))


def canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# --- workloads ------------------------------------------------------------------

class Workload:
    """One workload.  `af` maps airframe's module names to the modules; the
    timed op and the checks look functions up through it at call time, so
    a tracer that rewraps them sees every call."""

    block = 1          # inputs come in stratified blocks of this many ops
    trace_ops = 100    # fixed op count of a traced run; also the digest prefix

    def __init__(self, af):
        self.af = af

    def setup(self):
        pass

    def inputs(self, seed):
        raise NotImplementedError

    def op(self, case):
        raise NotImplementedError

    def check(self, case, result):
        """None if the result is right, else the reason it is wrong."""
        raise NotImplementedError

    def output(self, case, result):
        """The bytes of the op's output that go into the run's digest."""
        raise NotImplementedError

    def leaves(self, result):
        return None


class WordEval(Workload):
    """parse_word -> flatten -> evaluate_word -> to_json on seeded words.

    Flattened lengths are log-uniform over 8..128 letters, stratified: each
    block of 15 ops takes the midpoint of each fifteenth of the log range,
    in seeded order, so every seed sees the same lengths and only the
    words differ.  With 15 lengths the median falls in the middle of the
    8th length and the 90th percentile in the middle of the 14th; on the
    step between two lengths, a few words of a seed would move them far.

    Every result is checked for its log2 D, validity and reducedness; the
    identity test against the evaluated inverse word, which costs as much
    as the op itself, runs on a seeded one in XCHECK_EVERY words, so that
    more of a run's time goes to timed ops.
    """

    block = 15
    trace_ops = 120
    XCHECK_EVERY = 4

    def setup(self):
        self.table = self.af["systems"].airplane_generators()

    def inputs(self, seed):
        rng = random.Random(seed)
        xrng = random.Random("xcheck-%d" % seed)
        while True:
            lengths = [round(8 * 16 ** ((j + 0.5) / self.block))
                       for j in range(self.block)]
            rng.shuffle(lengths)
            for n in lengths:
                yield Word(gen_expr(rng, n),
                           xrng.randrange(self.XCHECK_EVERY) == 0)

    def op(self, case):
        w = self.af["words"]
        f = self.af["diagram"].evaluate_word(
            self.table, w.flatten(w.parse_word(case.src)))
        return f, f.to_json()

    def check(self, case, result):
        af = self.af
        f, data = result
        w = af["words"]
        if w.flatten(w.parse_word(case.src)) != case.letters:
            return "parser: letters differ from the word model"
        if af["analysis"].abelianization_image(f) != case.e_exp:
            return "log2 D differs from the epsilon exponent %d" % case.e_exp
        if not f.validate():
            return "result does not validate"
        if not is_reduced(f.mapping):
            return "result is not reduced"
        if not case.xcheck:
            return None
        inv = af["diagram"].evaluate_word(self.table, inverse(case.letters))
        if not is_identity_mapping(f.compose(inv)):
            return "f composed with the inverse word is not the identity"
        return None

    def output(self, case, result):
        return canonical_json(result[1]).encode()

    def leaves(self, result):
        return len(result[0].mapping)


class ComponentSolve(Workload):
    """Solver ops on the 2409 components of enumerate_components(8, 2).

    Each block of three ops, in seeded order, holds one solve_to_center
    with the five generators and one with the commutator generators (each
    walking its own seeded permutation of all components, so the first
    2409 blocks cover every component with both generator sets) and one
    solve_pair on a seeded distinct ordered pair.  A fixed mix keeps the
    median and the 90th percentile inside one kind of op, however many
    ops a run completes.  One op is one solve; one op in XCHECK_EVERY is
    also checked through diagrams, outside the timing.
    """

    block = 3
    trace_ops = 1500
    XCHECK_EVERY = 200
    WORD_BOUND = 30            # check_k_transitivity's default bound

    def setup(self):
        self.comps = self.af["components"].enumerate_components(8, 2)
        self.table = self.af["systems"].airplane_generators()

    def inputs(self, seed):
        rng = random.Random(seed)
        xrng = random.Random("xcheck-%d" % seed)
        comps = self.comps
        n = len(comps)
        five, comm = list(comps), list(comps)
        rng.shuffle(five)
        rng.shuffle(comm)
        seen = set()
        k = 0
        while True:
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j or (i, j) in seen:
                continue
            seen.add((i, j))
            block = [("five", five[k % n], None),
                     ("commutator", comm[k % n], None),
                     ("pair", comps[i], comps[j])]
            rng.shuffle(block)
            for kind, c1, c2 in block:
                yield (kind, c1, c2, xrng.randrange(self.XCHECK_EVERY) == 0)
            k += 1

    def op(self, case):
        kind, c1, c2, _ = case
        comp = self.af["components"]
        if kind == "pair":
            return comp.solve_pair(c1, c2)
        return comp.solve_to_center(c1, kind)

    def check(self, case, word):
        kind, c1, c2, xcheck = case
        comp = self.af["components"]
        if word is None:
            return "no word found"
        # check_k_transitivity bounds the words of single components only;
        # pair words are often longer than 30 symbols
        if kind != "pair" and comp.word_cost(word, kind) > self.WORD_BOUND:
            return "word cost above %d" % self.WORD_BOUND
        want = [(c1, ())] if kind != "pair" else \
            [(c1, ()), (c2, ((Fraction(0), HALF),))]
        for c, target in want:
            if comp.act_word(word, c) != target:
                return "coordinate action misses the target"
        if xcheck:
            f = self.af["diagram"].evaluate_word(self.table, word)
            for c, target in want:
                if comp.map_component(f, c) != target:
                    return "the word's diagram misses the target"
        return None

    def output(self, case, word):
        if word is None:
            return b"None"
        return " ".join("%s%d" % lt for lt in word).encode()


ORBIT_POOL_DEN = 4     # orbit endpoints: depth <= 1, denominators <= 4


def _orbit_pool():
    fr = [Fraction(k, ORBIT_POOL_DEN) for k in range(1, ORBIT_POOL_DEN)]
    pool = ["central"]
    for t in [Fraction(0)] + fr:
        for pos in fr:
            pool.append("(%s,%s)" % (t, pos))
    return pool


def _short_word(rng):
    return random_word(rng, rng.randint(1, 24))


MALFORMED = [
    # (command, function making the argument); each must exit with code 1
    ("eval", lambda rng, w: w.src + " ("),                   # syntax
    ("d", lambda rng, w: "[" + w.src + " a"),                # syntax
    ("commutator", lambda rng, w: w.src + " ^"),             # syntax
    ("circularize", lambda rng, w: w.src + " " + rng.choice("xyzq")),
    ("eval", lambda rng, w: rng.choice("hkmn") + " " + w.src),
    ("orbit", lambda rng, w: "(%d/3,1/2)" % rng.randint(1, 2)),
    ("orbit", lambda rng, w: "(0,%d/2)" % rng.randint(2, 5)),
    ("orbit", lambda rng, w: "(1/4,1/2);(%s,1/4)" % rng.choice(["0", "1/2"])),
]

# transitivity --depth-bound 2: enumerate_components(4, 2) has
# 1 + 4*3 + (4*3)*(2*3) = 85 components.  intertwine --depth 2 --bound 8:
# 1 + 8 + 8*7 = 65 vertices, four generator pairs each.
N_COMPONENTS_DEN4 = 85
N_INTERTWINE_CHECKS = 65 * 4


class CliMix(Workload):
    """In-process airframe.cli.main(argv) with stdout captured.

    Each block of 20 ops holds a fixed multiset of commands in seeded
    order: 5 eval, 2 d, 2 commutator, 2 circularize, 2 orbit, 2 malformed
    inputs (10%), 1 check, 1 intertwine and 3 transitivity (one k=1 with a
    seeded choice of generators, two sampled k=2).  The two k=2 runs are
    the 2nd and 3rd slowest ops of a block, so the 90th percentile falls
    inside one kind of op rather than on the step between two kinds.
    """

    block = 20
    trace_ops = 100
    KINDS = (["eval"] * 5 + ["d"] * 2 + ["commutator"] * 2
             + ["circularize"] * 2 + ["orbit"] * 2 + ["malformed"] * 2
             + ["check", "intertwine", "transitivity1"]
             + ["transitivity2"] * 2)

    def setup(self):
        self.af["cli"]._tables()
        self.pool = _orbit_pool()

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            for kind in kinds:
                yield self._case(rng, kind)

    def _case(self, rng, kind):
        word = None
        if kind in ("eval", "d", "commutator", "circularize"):
            word = _short_word(rng)
            argv = [kind, word.src] + (["--json"] if kind != "circularize"
                                       else [])
        elif kind == "orbit":
            src, tgt = rng.sample(self.pool, 2)
            argv = ["orbit", src, tgt, "--max-len", "3", "--json"]
        elif kind == "intertwine":
            argv = ["intertwine", "--depth", "2", "--bound", "8", "--json"]
        elif kind.startswith("transitivity"):
            argv = ["transitivity", "--depth-bound", "2", "--json"]
            if kind == "transitivity2":
                argv += ["--k", "2", "--sample", "20",
                         "--seed", str(rng.randrange(1 << 30))]
            else:
                argv += ["--k", "1", "--generators",
                         rng.choice(["five", "commutator"])]
        elif kind == "check":
            argv = ["check", "--json"]
        else:
            cmd, build = rng.choice(MALFORMED)
            argv = [cmd, build(rng, _short_word(rng))]
            if cmd == "orbit":
                argv.append("central")
        return (kind, argv, word)

    def op(self, case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.af["cli"].main(list(case[1]))
        return code, out.getvalue(), err.getvalue()

    def check(self, case, result):
        kind, argv, word = case
        code, out, err = result
        if kind == "malformed":
            if code != 1 or out or not err.startswith("error:"):
                return "malformed input not rejected with exit code 1"
            return None
        if code != 0:
            return "exit code %d: %s" % (code, err.strip())
        data = json.loads(out)
        systems = self.af["systems"]
        gpd = self.af["diagram"].GraphPairDiagram
        if kind == "eval":
            if not gpd.from_json(systems.airplane(), data).validate():
                return "eval output does not reload as a valid diagram"
        elif kind == "d":
            k = word.e_exp
            if (data["log2"] != k or data["abs_log2"] != abs(k)
                    or Fraction(data["derivative"]) != Fraction(2) ** k):
                return "derivative report differs from e-exponent %d" % k
        elif kind == "commutator":
            k = word.e_exp
            if data["epsilon_exponent"] != k or data["in_commutator"] != (k == 0):
                return "commutator report differs from e-exponent %d" % k
            part = gpd.from_json(systems.airplane(), data["commutator_part"])
            if not part.validate():
                return "commutator part is not a valid diagram"
        elif kind == "circularize":
            if not gpd.from_json(systems.circular_airplane(), data).validate():
                return "circularize output does not reload as a valid diagram"
        elif kind == "orbit":
            if data["found"]:
                comp = self.af["components"]
                w = [(t.rstrip("'"), -1 if t.endswith("'") else 1)
                     for t in data["word"].split()]
                src, tgt = (comp.parse_path(p) for p in argv[1:3])
                if len(w) > 3 or comp.act_word(w, src) != tgt:
                    return "orbit word does not move %s to %s" % tuple(argv[1:3])
        elif kind == "intertwine":
            if not data["ok"] or data["checked"] != N_INTERTWINE_CHECKS:
                return "intertwine report not ok"
        elif kind.startswith("transitivity"):
            want = 20 if kind == "transitivity2" else N_COMPONENTS_DEN4
            if not data["ok"] or data["checked"] != want:
                return "transitivity report not ok"
        elif kind == "check":
            if not data["ok"] or not all(c["ok"] for c in data["checks"]):
                return "check suite not ok"
        return None

    def output(self, case, result):
        code, out, err = result
        try:
            out = canonical_json(json.loads(out))
        except ValueError:
            pass
        return ("%d\n%s\n%s" % (code, out, err)).encode()


WORKLOADS = {"word_eval": WordEval, "component_solve": ComponentSolve,
             "cli_mix": CliMix}

