"""Command line interface.

Exit codes: 0 success, 1 usage or parse error, 2 invariant failure.
"""

import argparse
import functools
import json
import random
import sys

from . import analysis, circularize, components, trees, words
from .diagram import evaluate_word
from .systems import (airplane_generators, basilica_generators,
                      circle_generators, interval_generators,
                      SYSTEM_BUILDERS)
from .words import LONG_NAMES, WordSyntaxError, flatten


MAX_SEARCH = 100_000  # the most components, pairs or tree vertices
                      # that one transitivity or intertwine run may
                      # build or check
MAX_ORBIT_LEN = 8  # orbit's search grows about threefold per letter


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _tables():
    # one table per system: diagrams only compose over a shared instance
    return {
        "airplane": airplane_generators(),
        "basilica": basilica_generators(),
        "interval": interval_generators(),
        "circle": circle_generators(),
    }


def _word_diagram(src, system="airplane"):
    table = _tables()[system]
    parser = words.Parser(src)
    expr = parser.parse()
    for tok, pos in parser.toks:  # the parser's tokens, not a second scan
        name = LONG_NAMES.get(tok, tok)
        if tok[0].isalpha() and name not in table:
            raise WordSyntaxError("unknown generator %r for system %s"
                                  % (name, system), pos)
    return evaluate_word(table, flatten(expr))


def _emit(args, data, human):
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2))
    else:
        print(human)


def cmd_eval(args):
    f = _word_diagram(args.word, args.system)
    if args.dot:
        from .core import realize_graph
        print(realize_graph(f.domain).to_dot())
        return 0
    data = f.to_json()
    pairs = sorted("%s -> %s" % (a, b) for a, b in data["map"].items())
    _emit(args, data,
          "reduced diagram, %d leaf pairs:\n  %s"
          % (len(f.mapping), "\n  ".join(pairs)))
    return 0


def cmd_d(args):
    f = _word_diagram(args.word)
    dv = analysis.global_derivative(f)
    k = analysis.log2(dv)
    _emit(args, {"derivative": str(dv), "log2": k, "abs_log2": abs(k)},
          "D = %s, log2 D = %d, |log2 D| = %d" % (dv, k, abs(k)))
    return 0


def cmd_commutator(args):
    f = _word_diagram(args.word)
    c, k = analysis.semidirect_split(f, _tables()["airplane"]["e"])
    member = k == 0
    _emit(args, {"in_commutator": member, "epsilon_exponent": k,
                 "commutator_part": c.to_json()},
          "in commutator subgroup: %s; f = c o e^%d" % (member, k))
    return 0


def cmd_orbit(args):
    if args.max_len < 0:
        raise ValueError("--max-len must be at least 0")
    if args.max_len > MAX_ORBIT_LEN:
        raise ValueError("--max-len must be at most %d" % MAX_ORBIT_LEN)
    src = components.parse_path(args.src)
    tgt = components.parse_path(args.tgt)
    word = components.orbit_search(src, tgt, args.max_len,
                                   table=_tables()["airplane"])
    if word is None:
        _emit(args, {"found": False},
              "no word of length <= %d" % args.max_len)
    else:
        text = " ".join(n + ("'" if e < 0 else "") for n, e in word)
        _emit(args, {"found": True, "word": text, "length": len(word)},
              "word: %s" % (text or "(empty)"))
    return 0


def cmd_transitivity(args):
    if args.depth_bound < 0:
        raise ValueError("--depth-bound must be at least 0")
    # the count grows with the bound, so 64 stands for any larger bound
    if _component_count(min(args.depth_bound, 64)) > MAX_SEARCH:
        raise ValueError("--depth-bound %d enumerates more than %d "
                         "components" % (args.depth_bound, MAX_SEARCH))
    if args.sample is not None and args.sample > MAX_SEARCH:
        raise ValueError("--sample must be at most %d" % MAX_SEARCH)
    if args.k == 2 and args.sample is None:
        n = _component_count(args.depth_bound)
        if n * (n - 1) > MAX_SEARCH:
            raise ValueError("--k 2 --depth-bound %d checks %d ordered pairs, "
                             "more than %d; pass --sample"
                             % (args.depth_bound, n * (n - 1), MAX_SEARCH))
    rng = random.Random(args.seed)
    rep = components.check_k_transitivity(
        args.k, gen_set=args.generators, max_den=2 ** args.depth_bound,
        word_bound=args.word_bound,
        sample=args.sample, rng=rng)
    _emit(args, rep, "k=%d over %s generators: %d tuples checked, %d failures"
          % (rep["k"], rep["generators"], rep["checked"],
             len(rep["failures"])))
    return 0 if rep["ok"] else 2


def _component_count(depth_bound):
    """len(components.enumerate_components(2 ** depth_bound, 2)) in
    closed form: the center, n(n-1) paths of depth 1 and n(n-1)^2(n-2)
    of depth 2, for n = 2 ** depth_bound."""
    n = 2 ** depth_bound
    return 1 + n * (n - 1) + n * (n - 1) ** 2 * (n - 2)


def cmd_circularize(args):
    f = _word_diagram(args.word)
    g = circularize.phi_diagram(f)
    print(json.dumps(g.to_json(), indent=2))
    return 0


def _vertex_count(depth, bound):
    """len(trees.truncated_vertices(depth, bound)) in closed form:
    `bound` first moves, then m = max(bound - 1, 1) at each later step
    (INC and the turns other than 0 and 1/2)."""
    m = max(bound - 1, 1)
    return 1 + bound * (depth if m == 1 else (m ** depth - 1) // (m - 1))


def cmd_intertwine(args):
    # at least 1 + bound * depth vertices: a test that needs no power;
    # negative depths and bounds are left to intertwine_check to reject
    depth = max(args.depth, 0)
    if args.bound > MAX_SEARCH or args.bound * depth >= MAX_SEARCH \
            or _vertex_count(depth, args.bound) > MAX_SEARCH:
        raise ValueError("--depth %d --bound %d builds more than %d tree "
                         "vertices" % (args.depth, args.bound, MAX_SEARCH))
    rep = trees.intertwine_check(args.depth, args.bound)
    _emit(args, rep, "depth %d, bound %d: %d checks, %d mismatches"
          % (rep["depth"], rep["bound"], rep["checked"],
             len(rep["mismatches"])))
    return 0 if rep["ok"] else 2


def cmd_systems(args):
    from .core import validate_system
    if args.name:
        system = SYSTEM_BUILDERS[args.name]()
        print(system.dumps())
        return 0
    rows = []
    for name, builder in sorted(SYSTEM_BUILDERS.items()):
        system = builder()
        rows.append({"name": name, "valid": validate_system(system),
                     "colors": sorted(system.colors())})
    _emit(args, rows, "\n".join("%-18s valid=%s colors=%s"
                                % (r["name"], r["valid"],
                                   ",".join(r["colors"])) for r in rows))
    return 0


def _core_suite():
    g = _tables()["airplane"]
    checks = []

    def check(name, ok):
        checks.append({"check": name, "ok": bool(ok)})

    db = g["d"].compose(g["b"])
    check("(d b)^3 = 1", db.power(3).is_identity())
    check("d^2 = 1", g["d"].power(2).is_identity())
    check("a = [e,d] [e^-1, a^-2]",
          _word_diagram("a' [e,d] [e^-1, a^-2]").is_identity())
    check("b^e = b", _word_diagram("b^e").equals(g["b"]))
    check("g^e = g", _word_diagram("g^e").equals(g["g"]))
    check("D(e) = 2", analysis.global_derivative(g["e"]) == 2)
    check("D(a..d) = 1", all(analysis.global_derivative(g[n]) == 1
                             for n in "abgd"))
    rng = random.Random(0)
    ok = True
    names = list("abgde")
    for _ in range(10):
        word = [(rng.choice(names), rng.choice([1, -1])) for _ in range(6)]
        f = evaluate_word(g, word)
        expanded = f
        for _ in range(3):
            a = rng.choice(sorted(expanded.mapping))
            expanded = expanded.expand_pair(a)
        ok = ok and expanded.reduce().equals(f)
    check("reduction canonicity (10 random words)", ok)
    phi = circularize.phi_diagram
    f1 = evaluate_word(g, [("a", 1), ("e", -1)])
    f2 = evaluate_word(g, [("b", 1), ("d", 1)])
    check("phi homomorphism sample",
          phi(f1.compose(f2)).equals(phi(f1).compose(phi(f2))))
    check("intertwine depth 1 bound 4",
          trees.intertwine_check(1, 4)["ok"])
    return checks


def cmd_check(args):
    if args.suite != "core":
        raise UsageError("unknown suite %r" % args.suite)
    checks = _core_suite()
    ok = all(c["ok"] for c in checks)
    _emit(args, {"suite": "core", "ok": ok, "checks": checks},
          "\n".join("%-40s %s" % (c["check"], "pass" if c["ok"] else "FAIL")
                    for c in checks)
          + "\nsuite: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 2


@functools.cache
def build_parser():
    p = Parser(prog="airframe",
               description="Rearrangements of the Airplane limit space.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        return sp

    sp = add("eval", cmd_eval, help="evaluate a word to a reduced diagram")
    sp.add_argument("word")
    sp.add_argument("--system", default="airplane",
                    choices=["airplane", "basilica", "interval", "circle"])
    sp.add_argument("--dot", action="store_true",
                    help="emit the domain graph in DOT format")

    sp = add("d", cmd_d, help="extremal derivative report")
    sp.add_argument("word")

    sp = add("commutator", cmd_commutator,
             help="commutator-subgroup membership and semidirect split")
    sp.add_argument("word")

    sp = add("orbit", cmd_orbit, help="shortest word moving one component "
                                      "to another")
    sp.add_argument("src")
    sp.add_argument("tgt")
    sp.add_argument("--max-len", type=int, default=3)

    sp = add("transitivity", cmd_transitivity,
             help="k-transitivity check on components")
    sp.add_argument("--k", type=int, default=1, choices=[1, 2])
    sp.add_argument("--depth-bound", type=int, default=3)
    sp.add_argument("--word-bound", type=int, default=30)
    sp.add_argument("--generators", default="five",
                    choices=["five", "commutator"])
    sp.add_argument("--sample", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("circularize", cmd_circularize,
             help="transport a word to the circular system")
    sp.add_argument("word")

    sp = add("intertwine", cmd_intertwine,
             help="compare the tree actions with the Basilica group")
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--bound", type=int, default=4)

    sp = add("systems", cmd_systems, help="list or dump replacement systems")
    sp.add_argument("name", nargs="?", default=None,
                    choices=[None] + sorted(SYSTEM_BUILDERS))

    sp = add("check", cmd_check, help="run the self-test suite")
    sp.add_argument("--suite", default="core")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (WordSyntaxError, UsageError, ValueError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    except AssertionError as ex:
        print("invariant failure: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
