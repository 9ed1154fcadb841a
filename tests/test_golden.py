"""Golden corpus: digests of outputs that refactors must keep identical.

Each case stores the sha256 of the sort_keys JSON of one computation's
result.  The digests in golden_corpus.json are regenerated by

    PYTHONPATH=src python tests/test_golden.py

which is only right when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from airframe import analysis, circularize, cli, components as comp, trees
from airframe.core import child, format_address, realize_graph
from airframe.diagram import (GraphPairDiagram, commutator, evaluate_word,
                              identity)
from airframe.systems import (airplane_generators, basilica_generators,
                              circle_generators, interval_generators)
from airframe.words import flatten, parse_word
from test_properties import FLIP, TABLES

CORPUS = Path(__file__).with_name("golden_corpus.json")

# words whose induced circle or line maps are defined, then seeded ones
FIXED_WORDS = ["b", "g", "d", "b g'", "[b,g]", "d b^2 g", "a", "e", "a e'",
               "e^2 a", "a^-2 e", "[e,d] [e^-1, a^-2]"]


def _breaks(m):
    return None if m is None else [[str(x), str(y)] for x, y in m.breaks]


def _random_word(rng, max_len=10):
    return " ".join(rng.choice("abgde") + rng.choice(["", "'"])
                    for _ in range(rng.randint(1, max_len)))


def word_cases(table):
    rng = random.Random(2107)
    for src in FIXED_WORDS + [_random_word(rng) for _ in range(24)]:
        f = evaluate_word(table, flatten(parse_word(src)))
        try:
            boundary = _breaks(analysis.induced_boundary_map(f))
        except ValueError:
            boundary = None
        yield "word " + src, {
            "diagram": f.to_json(),
            "log2": analysis.abelianization_image(f),
            "boundary": boundary,
            "hor": _breaks(analysis.induced_hor_map(f)),
            "phi": circularize.phi_diagram(f).to_json(),
        }


def random_word_cases(table, n=1000):
    """The reduced diagrams of n seeded words of 1 to 30 letters."""
    rng = random.Random(3014)
    for i in range(n):
        src = _random_word(rng, 30)
        f = evaluate_word(table, flatten(parse_word(src)))
        yield "random %04d %s" % (i, src), f.reduce().to_json()


def _tables():
    return {"airplane": airplane_generators(),
            "basilica": basilica_generators(),
            "interval": interval_generators(),
            "circle": circle_generators()}


def _table_word(rng, table, max_len):
    return [(rng.choice(sorted(table)), rng.choice([1, -1]))
            for _ in range(rng.randint(1, max_len))]


def dot_cases(tables):
    """The DOT bytes of the realized domains of seeded words over each
    table, and of their circularizations for the Airplane."""
    rng = random.Random(4417)
    for name, table in sorted(tables.items()):
        words = [_table_word(rng, table, 14) for _ in range(25)]
        words += [[(sorted(table)[0], 30)], [(sorted(table)[-1], -25)]]
        for w in words:
            f = evaluate_word(table, w)
            key = "dot %s %s" % (name, " ".join("%s^%d" % x for x in w))
            yield key, realize_graph(f.domain).to_dot()
            if name == "airplane":
                g = circularize.phi_diagram(f)
                yield "phi " + key, realize_graph(g.domain).to_dot()


POWERS = [0, 2, 3, 7, -5]


def product_cases():
    """Powers of seeded words over each table of test_properties (one
    adds the reflection FLIP to the Airplane's) and of FLIP, conjugates
    and commutators of seeded pairs, and the identity of each system."""
    rng = random.Random(9029)
    for name, table in sorted(TABLES.items()):
        words = [_table_word(rng, table, 8) for _ in range(6)]
        fs = [evaluate_word(table, w) for w in words]
        for w, f in zip(words, fs):
            key = " ".join("%s^%d" % x for x in w)
            yield "power %s %s" % (name, key), [f.power(k).to_json()
                                                 for k in POWERS]
        pairs = [[evaluate_word(table, _table_word(rng, table, 6))
                  for _ in range(2)] for _ in range(40)]
        yield "conjugate %s" % name, [f.conjugate(g).to_json()
                                      for f, g in pairs]
        yield "commutator %s" % name, [commutator(f, g).to_json()
                                       for f, g in pairs]
        yield "identity %s" % name, identity(fs[0].system).to_json()
    yield "power FLIP", [FLIP.power(k).to_json() for k in POWERS]


def _expanded(rng, f, n):
    for _ in range(n):
        f = f.expand_pair(rng.choice(sorted(f.mapping)))
    return f


def compose_reduce_cases():
    """Over each table of test_properties: f.compose(g) for seeded pairs
    with 0-3 pairs expanded on each side, and reduce() of seeded words
    expanded at 1-12 pairs."""
    rng = random.Random(1153)
    for name, table in sorted(TABLES.items()):
        pairs = [[_expanded(rng, evaluate_word(
            table, _table_word(rng, table, 8)), rng.randint(0, 3))
            for _ in range(2)] for _ in range(40)]
        yield "compose %s" % name, [f.compose(g).to_json()
                                    for f, g in pairs]
        fs = [_expanded(rng, evaluate_word(table, _table_word(rng, table, 8)),
                        rng.randint(1, 12)) for _ in range(40)]
        yield "reduce %s" % name, [f.reduce().to_json() for f in fs]


def corrupted(rng, f):
    """Seeded corruptions of f's mapping: two images swapped (between
    cells of one color when there are two), a flag flipped, a leaf
    missing, a leaf replaced by its first child."""
    items = sorted(f.mapping.items())
    color = f.system.color_of
    a, (b, r) = rng.choice(items)
    same = [x for x in items if x[0] != a and color(x[0]) == color(a)]
    c, (d, s) = rng.choice(same or [x for x in items if x[0] != a]
                           or items)
    yield "swap", _with(f.mapping, {a: (d, r), c: (b, s)})
    yield "flip", _with(f.mapping, {a: (b, not r)})
    missing = dict(f.mapping)
    del missing[a]
    yield "missing", missing
    replaced = dict(f.mapping)
    del replaced[a]
    replaced[child(a, 0)] = (b, r)
    yield "child", replaced


def _with(mapping, changes):
    out = dict(mapping)
    out.update(changes)
    return out


def validate_cases(tables):
    """validate() verdicts of seeded words and of corruptions of them."""
    rng = random.Random(5521)
    for name, table in sorted(tables.items()):
        for _ in range(15):
            w = _table_word(rng, table, 10)
            f = evaluate_word(table, w)
            verdicts = {"valid": f.validate()}
            for kind, mapping in corrupted(rng, f):
                verdicts[kind] = GraphPairDiagram(f.system,
                                                  mapping).validate()
            yield ("validate %s %s" % (name, " ".join("%s^%d" % x
                                                       for x in w)),
                   verdicts)


def component_cases(table):
    moves = [table[n] if s > 0 else table[n].invert()
             for s in (1, -1) for n in "abgde"]
    rng = random.Random(808)
    comps = (comp.enumerate_components(4, 2)
             + rng.sample(comp.enumerate_components(8, 2), 40))
    for c in comps:
        e = comp.path_to_component(c)
        yield "component " + comp.format_path(c), {
            "creator": None if e is None else format_address(e),
            "path": comp.format_path(comp.component_path(e)),
            "images": [comp.format_path(comp.map_component(f, c))
                       for f in moves],
        }


SIGNED = [(n, s) for s in (1, -1) for n in "abgde"]


def _seeded_path(rng, max_depth, den):
    """A component path of depth <= max_depth with denominators <= den."""
    out = []
    for k in range(rng.randint(0, max_depth)):
        while True:
            t = Fraction(rng.randrange(den), den)
            if k == 0 or t not in (0, Fraction(1, 2)):
                break
        out.append((t, Fraction(rng.randrange(1, den), den)))
    return tuple(out)


def _chunks(items, size=100):
    for i in range(0, len(items), size):
        yield i, items[i:i + size]


def act_cases():
    """The coordinate action of the ten signed generators on every
    component of (8, 2) and on seeded deeper paths, 100 paths a case."""
    rng = random.Random(6203)
    paths = (comp.enumerate_components(8, 2)
             + [_seeded_path(rng, 5, 64) for _ in range(300)])
    for i, chunk in _chunks(paths):
        yield "act %04d" % i, [[comp.format_path(comp.act(n, s, p))
                                for n, s in SIGNED] for p in chunk]


def _word(w):
    return None if w is None else " ".join(
        "%s^%d" % x for x in w)


def solver_cases():
    """Solver words: to the center with both generating sets, and for
    pairs; orbit words between the points of the CLI's orbit pool, at
    lengths 2 and 3; the 1-transitivity reports at denominator 4 and a
    sampled 2-transitivity report."""
    rng = random.Random(7331)
    comps = comp.enumerate_components(8, 2)
    for i, chunk in _chunks(rng.sample(comps, 300), 50):
        for gen_set in ("five", "commutator"):
            yield "solve %s %03d" % (gen_set, i), [
                _word(comp.solve_to_center(c, gen_set)) for c in chunk]
    pairs = [tuple(rng.sample(comps, 2)) for _ in range(100)]
    for i, chunk in _chunks(pairs, 25):
        yield "solve pair %03d" % i, [_word(comp.solve_pair(c1, c2))
                                      for c1, c2 in chunk]
    pool = comp.enumerate_components(4, 1)
    for src in pool:
        yield "orbit " + comp.format_path(src), [
            _word(comp.orbit_search(src, tgt, 2)) for tgt in pool]
        yield "orbit len 3 " + comp.format_path(src), [
            _word(comp.orbit_search(src, tgt, 3)) for tgt in pool]
    for gen_set in ("five", "commutator"):
        yield ("transitivity 1 %s 4" % gen_set,
               comp.check_k_transitivity(1, gen_set, 4))
    yield ("transitivity 2 five 4 sample 50",
           comp.check_k_transitivity(2, "five", 4, sample=50,
                                     rng=random.Random(0)))


def vertex_cases():
    for moves in trees.truncated_vertices(2, 8):
        loop = trees.vertex_to_loop(trees.identify(moves))
        yield "vertex " + " ".join(str(m) for m in moves), {
            "loop": None if loop is None else format_address(loop),
            "vertex": [str(x) for x in trees.basilica_vertex(loop)],
        }


SWAPPED = [("a", "b"), ("b", "a"), ("g", "c"), ("d", "d")]


def intertwine_cases():
    """intertwine_check reports, canonical pairing and a and b swapped."""
    for depth, bound in ((1, 4), (2, 8)):
        for name, pairing in (("canonical", None), ("swapped", SWAPPED)):
            yield ("intertwine %s %d %d" % (name, depth, bound),
                   trees.intertwine_check(depth, bound, pairing))


CLI_ARGVS = [
    ["eval", "a e' [b, g]", "--json"],
    ["eval", "b a^2", "--system", "basilica", "--json"],
    ["eval", "x0 x1'", "--system", "interval", "--json"],
    ["eval", "y0 y2^2", "--system", "circle", "--json"],
    ["eval", "a g", "--dot"],
    ["d", "e^-2 a [b, e]", "--json"],
    ["commutator", "[d, e] a e", "--json"],
    ["orbit", "(0,1/2)", "central", "--max-len", "2", "--json"],
    ["orbit", "(1/4,3/4)", "(3/4,1/4)", "--max-len", "3", "--json"],
    ["orbit", "(1/4,3/4);(1/8,1/2)", "central", "--max-len", "1", "--json"],
    ["transitivity", "--depth-bound", "1", "--json"],
    ["transitivity", "--k", "2", "--sample", "4", "--seed", "7",
     "--depth-bound", "1", "--generators", "commutator", "--json"],
    ["circularize", "a d", "--json"],
    ["intertwine", "--json"],
    ["intertwine", "--depth", "2", "--bound", "8", "--json"],
    ["systems", "--json"],
    ["systems", "basilica", "--json"],
    ["check", "--json"],
    ["eval", "a (", "--json"],
    ["orbit", "(1/3,1/2)", "central", "--json"],
]


def cli_cases():
    """(exit code, stdout) of cli.main for each of CLI_ARGVS."""
    for argv in CLI_ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        yield "cli " + " ".join(argv), [code, out.getvalue()]


def digests(cases):
    return {name: hashlib.sha256(json.dumps(value, sort_keys=True).encode())
            .hexdigest() for name, value in cases}


def all_digests():
    tables = _tables()
    table = tables["airplane"]
    out = {}
    for cases in (word_cases(table), random_word_cases(table),
                  component_cases(table), vertex_cases(),
                  dot_cases(tables), validate_cases(tables), act_cases(),
                  solver_cases(), product_cases(), compose_reduce_cases(),
                  intertwine_cases(), cli_cases()):
        out.update(digests(cases))
    return out


def test_golden_corpus():
    want = json.loads(CORPUS.read_text())
    got = all_digests()
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, "outputs changed: %s" % changed[:10]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True)
                      + "\n")
