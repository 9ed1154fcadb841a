import json
import os
import subprocess
import sys
import time

import pytest

import airframe
from airframe import cli, components, trees
from airframe.diagram import GraphPairDiagram
from airframe.words import (MAX_LETTERS, MAX_NESTING, WordSyntaxError, flatten,
                            parse_word)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_identity(capsys):
    code, out, _ = run(capsys, "eval", "d b d b d b", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(a == b for a, b in data["map"].items())


def test_eval_roundtrips_json(capsys, A):
    code, out, _ = run(capsys, "eval", "a e' [b, g]", "--json")
    assert code == 0
    from airframe.cli import _word_diagram
    f = _word_diagram("a e' [b, g]")
    assert GraphPairDiagram.from_json(f.system, json.loads(out)).equals(f)


def test_derivative_report(capsys):
    code, out, _ = run(capsys, "d", "e^-2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["abs_log2"] == 2


def test_commutator_report(capsys):
    code, out, _ = run(capsys, "commutator", "[d, e]", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["in_commutator"] and data["epsilon_exponent"] == 0


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "(0,1/2)", "central",
                       "--max-len", "2", "--json")
    assert code == 0
    assert json.loads(out)["word"] == "a'"


def test_transitivity(capsys):
    code, out, _ = run(capsys, "transitivity", "--k", "1",
                       "--depth-bound", "1", "--json")
    assert code == 0
    assert json.loads(out)["ok"]


def test_orbit_zero_denominator_fails_cleanly(capsys):
    code, _, err = run(capsys, "orbit", "(1/0,1/2)", "central")
    assert code == 1
    assert err.startswith("error: zero denominator")


def test_word_bound_applies_to_k_1(capsys):
    code, out, _ = run(capsys, "transitivity", "--word-bound", "30",
                       "--depth-bound", "1", "--json")
    assert code == 0 and json.loads(out)["checked"] == 3
    # only the central component has a word of cost 0
    code, out, _ = run(capsys, "transitivity", "--word-bound", "0",
                       "--depth-bound", "1", "--json")
    assert code == 2
    assert json.loads(out)["failures"] == ["(0,1/2)", "(1/2,1/2)"]


def test_negative_depth_bound_fails_cleanly(capsys):
    code, _, err = run(capsys, "transitivity", "--depth-bound", "-1")
    assert code == 1
    assert err.startswith("error: --depth-bound")


def test_circularize(capsys):
    code, out, _ = run(capsys, "circularize", "d")
    assert code == 0
    assert json.loads(out)["system"] == "circular_airplane"


def test_intertwine(capsys):
    code, out, _ = run(capsys, "intertwine", "--depth", "1",
                       "--bound", "2", "--json")
    assert code == 0
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("argv, message", [
    (["intertwine", "--bound", "0"], "bound must be a power of two"),
    (["intertwine", "--bound", "-4"], "bound must be a power of two"),
    (["intertwine", "--bound", "3"], "not dyadic: 1/3"),
    (["intertwine", "--depth", "-1"], "depth must be at least 0"),
    (["orbit", "central", "(0,1/2)", "--max-len", "-1"],
     "--max-len must be at least 0"),
    # searches too large to build, rejected before they are built
    (["transitivity", "--depth-bound", "40"],
     "--depth-bound 40 enumerates more than 100000 components"),
    (["transitivity", "--k", "2", "--sample", str(10 ** 8)],
     "--sample must be at most 100000"),
    (["intertwine", "--bound", str(2 ** 40)],
     "--depth 1 --bound 1099511627776 builds more than 100000"),
    (["intertwine", "--depth", "50"],
     "--depth 50 --bound 4 builds more than 100000 tree vertices"),
    (["orbit", "central", "(0,1/2)", "--max-len", "9"],
     "--max-len must be at most 8"),
    (["transitivity", "--k", "2"],
     "--k 2 --depth-bound 3 checks 5800872 ordered pairs, more than 100000;"
     " pass --sample"),
    # Fraction would build 10**10000000 before any check saw it
    (["orbit", "(1e-10000000,1/2)", "central"],
     "bad coordinate '1e-10000000': no exponent notation"),
    # a sample must draw at least one of the ordered pairs, at most all
    (["transitivity", "--k", "1", "--sample", "5", "--depth-bound", "1"],
     "k=1 checks every component; sample is for k=2"),
    (["transitivity", "--k", "2", "--sample", "0", "--depth-bound", "1"],
     "sample must be between 1 and 6, the number of ordered pairs"),
    (["transitivity", "--k", "2", "--sample", "-3", "--depth-bound", "1"],
     "sample must be between 1 and 6, the number of ordered pairs"),
    (["transitivity", "--k", "2", "--sample", "7", "--depth-bound", "1"],
     "sample must be between 1 and 6, the number of ordered pairs"),
    # the central component alone makes no pair
    (["transitivity", "--k", "2", "--depth-bound", "0"],
     "k=2 needs at least two components; there is only the central one"),
    (["transitivity", "--k", "2", "--depth-bound", "0", "--sample", "1"],
     "k=2 needs at least two components; there is only the central one"),
    (["transitivity", "--word-bound", "-1", "--depth-bound", "1"],
     "word_bound must be at least 0"),
    # pair words are never bounded, so a bound given with --k 2 is refused
    (["transitivity", "--k", "2", "--word-bound", "-5", "--depth-bound", "1"],
     "--word-bound bounds the words of --k 1; pair words are not bounded"),
    (["transitivity", "--k", "2", "--word-bound", "30", "--sample", "3",
      "--depth-bound", "1"],
     "--word-bound bounds the words of --k 1; pair words are not bounded"),
    # the central component's word is empty, so k=1 would check nothing
    (["transitivity", "--k", "1", "--depth-bound", "0"],
     "--depth-bound 0 enumerates only the central component"),
])
def test_vacuous_arguments_fail_cleanly(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("path, message", [
    ("(1/2,1/4,1/8)", "bad component path '(1/2,1/4,1/8)'"),
    ("(1/2)", "bad component path '(1/2)'"),
    ("(0,1/2);(1/4)", "bad component path '(0,1/2);(1/4)'"),
    ("((1/4,1/2))", "bad component path '((1/4,1/2))'"),
    ("(1/4,x)", "bad component path '(1/4,x)'"),
])
def test_malformed_component_paths_fail_cleanly(capsys, path, message):
    for argv in (["orbit", path, "central"], ["orbit", "central", path]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == "error: %s\n" % message


def test_search_counts_match_what_is_built():
    for depth_bound in range(4):
        assert cli._component_count(depth_bound) == \
            len(components.enumerate_components(2 ** depth_bound, 2))
    for depth in range(4):
        for bound in (1, 2, 4, 8):
            assert cli._vertex_count(depth, bound) == \
                len(trees.truncated_vertices(depth, bound))
    # transitivity admits denominators up to 16, intertwine depth 3 at
    # bound 16
    assert cli._component_count(4) <= cli.MAX_SEARCH \
        < cli._component_count(5)
    assert cli._vertex_count(3, 16) <= cli.MAX_SEARCH
    # every ordered pair of --k 2 is checked up to --depth-bound 2
    n2, n3 = cli._component_count(2), cli._component_count(3)
    assert n2 * (n2 - 1) <= cli.MAX_SEARCH < n3 * (n3 - 1)


def test_unknown_suite_fails_cleanly(capsys):
    code, out, err = run(capsys, "check", "--suite", "x")
    assert code == 1 and not out
    assert err == "error: unknown suite 'x'\n"


def test_reused_parser_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "transitivity", "--k", "2", "--sample", "3",
                       "--seed", "5", "--depth-bound", "1", "--json")
    assert code == 0 and json.loads(out)["k"] == 2
    code, out, _ = run(capsys, "transitivity", "--depth-bound", "1", "--json")
    assert code == 0 and json.loads(out)["k"] == 1
    code, out, _ = run(capsys, "eval", "b", "--system", "basilica", "--json")
    assert json.loads(out)["system"] == "basilica"
    code, out, _ = run(capsys, "eval", "b", "--json")
    assert json.loads(out)["system"] == "airplane"
    assert run(capsys, "eval", "--no-such-flag", "b")[0] == 1
    assert run(capsys, "d", "b", "--json")[0] == 0


def test_systems_listing(capsys):
    code, out, _ = run(capsys, "systems", "--json")
    assert code == 0
    names = [r["name"] for r in json.loads(out)]
    assert "airplane" in names and "basilica" in names


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "a (")
    assert code == 1
    assert "offset" in err


def test_unknown_generator_exit_code(capsys):
    code, _, err = run(capsys, "eval", "q")
    assert code == 1
    code, _, err = run(capsys, "eval", "a h")
    assert code == 1
    assert "at offset 2" in err


def test_unknown_generator_error_line(capsys):
    # found on the parser's tokens, after the whole word has parsed
    assert run(capsys, "eval", "h a") == (
        1, "", "error: unknown generator 'h' for system airplane"
               " (at offset 0)\n")
    assert run(capsys, "eval", "h (")[2] == \
        "error: unexpected end of word (at offset 3)\n"


def test_eval_json_bytes_do_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(airframe.__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run(
            [sys.executable, "-m", "airframe.cli", "eval",
             "a b e' g d a e", "--json"],
            env=env, capture_output=True, check=True).stdout)
    assert outs[0] == outs[1]


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "transitivity", "--k", "7")
    assert code == 1


def test_dot_output(capsys):
    code, out, _ = run(capsys, "eval", "a", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def pretty(expr):
    """A word expression written back in the parser's grammar."""
    kind = expr[0]
    if kind == "atom":
        return expr[1]
    if kind == "seq":
        return " ".join(_wrap(p) for p in expr[1])
    if kind == "inv":
        return _wrap(expr[1]) + "'"
    if kind == "pow":
        return "%s^%d" % (_wrap(expr[1]), expr[2])
    if kind == "conj":
        return "%s^%s" % (_wrap(expr[1]), _wrap(expr[2]))
    if kind == "comm":
        return "[%s, %s]" % (pretty(expr[1]), pretty(expr[2]))
    raise ValueError("bad node %r" % (expr,))


def _wrap(expr):
    return pretty(expr) if expr[0] in ("atom", "inv", "pow", "conj",
                                       "comm") else "(%s)" % pretty(expr)


def test_word_pretty_reparse():
    for s in ["a", "a b' g^3", "[e, d] [e^-1, a^-2]", "b^e",
              "(a b)^-2 e'"]:
        expr = parse_word(s)
        assert parse_word(pretty(expr)) == expr


def test_long_names():
    assert flatten(parse_word("alpha beta'")) == [("a", 1), ("b", -1)]


def test_parse_diagnostics_have_offsets():
    with pytest.raises(WordSyntaxError) as ei:
        parse_word("a [b, ")
    assert ei.value.pos == 6


def eval_subprocess(word):
    src = os.path.dirname(os.path.dirname(airframe.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "airframe.cli", "eval", word],
        env=env, capture_output=True, text=True, timeout=10)


def test_deep_diagram_exports_and_round_trips():
    # addresses 1500 levels deep: past the interpreter's recursion limit
    src = os.path.dirname(os.path.dirname(airframe.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "airframe.cli", "eval", "--dot", "a^1500"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("digraph")
    f = cli._word_diagram("a^1500")
    back = GraphPairDiagram.from_json(f.system, f.to_json())  # validates
    assert back.mapping == f.mapping


def test_huge_exponent_fails_fast():
    done = eval_subprocess("a^1000000")
    assert done.returncode == 1
    assert "at offset 1" in done.stderr


@pytest.mark.parametrize("word", ["(" * 400 + "a" + ")" * 400,
                                  "a" + "'" * 3000])
def test_deep_nesting_fails_cleanly(word):
    done = eval_subprocess(word)
    assert done.returncode == 1
    assert done.stderr.startswith("error: word nested deeper than %d levels"
                                  " (at offset %d)" % (MAX_NESTING,
                                                       MAX_NESTING))
    assert "Traceback" not in done.stderr


def test_nesting_bound():
    n = MAX_NESTING
    for s in ["(" * n + "a b" + ")" * n, "a" + "'" * (n - 1)]:
        assert parse_word(pretty(parse_word(s))) == parse_word(s)
        assert len(flatten(parse_word(s))) in (1, 2)
    for s, pos in [("(" * (n + 1) + "a" + ")" * (n + 1), n),
                   ("b a" + "'" * n, 2 + n)]:
        with pytest.raises(WordSyntaxError) as ei:
            parse_word(s)
        assert ei.value.pos == pos


def test_word_length_bound():
    assert len(flatten(parse_word("(a b)^%d" % (MAX_LETTERS // 2)))) \
        == MAX_LETTERS
    for s, pos in [("a b^%d" % (MAX_LETTERS + 1), 3),
                   ("b [a^4000, g^100]", 2),
                   ("a (a b)^%d" % (MAX_LETTERS // 2), 2)]:
        with pytest.raises(WordSyntaxError) as ei:
            parse_word(s)
        assert ei.value.pos == pos


@pytest.mark.parametrize("argv, message", [
    (["eval", ","], "expected a generator, found ',' (at offset 0)"),
    (["eval", ")"], "expected a generator, found ')' (at offset 0)"),
    (["d", "'"], "expected a generator, found \"'\" (at offset 0)"),
    (["eval", "a^'"], "expected a generator, found \"'\" (at offset 2)"),
])
def test_punctuation_for_a_generator_fails_cleanly(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", "error: %s\n" % message)


def test_punctuation_for_a_generator_prints_no_traceback():
    done = eval_subprocess("a^'")
    assert done.returncode == 1
    assert done.stderr == "error: expected a generator, found \"'\"" \
                          " (at offset 2)\n"


def test_closed_pipe_prints_no_traceback():
    # the reader is gone before the suite has printed anything, as with
    # `airframe check --json | head -n 1` on a long output
    src = os.path.dirname(os.path.dirname(airframe.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "airframe.cli", "check", "--json"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == ""
