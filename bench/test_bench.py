"""Self-tests of the benchmark: inputs, checks, self time and tracing.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import tracer
import workloads
import worker

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def af():
    return worker.load_airframe()


def _first(w, seed, n):
    it = w.inputs(seed)
    out = []
    for _ in range(n):
        case = next(it)
        if isinstance(case, workloads.Word):
            case = (case.src, case.letters, case.e_exp)
        elif isinstance(w, workloads.CliMix):
            case = (case[0], case[1])
        out.append(case)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(af, name):
    w = workloads.WORKLOADS[name](af)
    w.setup()
    n = 5000 if name == "component_solve" else 60
    assert _first(w, 7, n) == _first(w, 7, n)
    assert _first(w, 7, n) != _first(w, 8, n)


def test_word_model_agrees_with_the_parser(af):
    w = af["words"]
    it = workloads.WordEval(af).inputs(3)
    for _ in range(64):
        word = next(it)
        assert 8 <= len(word.letters) <= 128
        assert w.flatten(w.parse_word(word.src)) == word.letters


def test_word_eval_check_flags_wrong_results(af):
    w = workloads.WordEval(af)
    w.setup()
    word = workloads.Word(("seq", [("atom", "a", "a"), ("atom", "e", "e"),
                                   ("atom", "b", "b")]))
    f, data = w.op(word)
    assert w.check(word, (f, data)) is None
    inv = f.invert()
    assert w.check(word, (inv, inv.to_json())) is not None
    # zero e-exponent: only the identity test tells f from its inverse
    word = workloads.Word(("seq", [("atom", "a", "a"), ("atom", "b", "b")]))
    f, data = w.op(word)
    assert w.check(word, (f, data)) is None
    inv = f.invert()
    assert w.check(word, (inv, inv.to_json())) is not None
    # same element, but one pair expanded: no longer reduced
    leaf = sorted(f.mapping)[0]
    assert workloads.is_reduced(f.mapping)
    assert not workloads.is_reduced(f.expand_pair(leaf).mapping)
    assert w.check(word, (f.expand_pair(leaf), data)) is not None


def test_component_solve_check_flags_wrong_words(af):
    w = workloads.ComponentSolve(af)
    w.setup()
    c = ((Fraction(1, 4), Fraction(3, 8)), (Fraction(3, 4), Fraction(1, 2)))
    for case in [("five", c, None, True), ("commutator", c, None, False),
                 ("pair", c, (), True)]:
        word = w.op(case)
        assert w.check(case, word) is None
        assert w.check(case, word[:-1]) is not None
    assert w.check(("five", c, None, False), None) is not None


def test_cli_mix_check_flags_wrong_results(af):
    w = workloads.CliMix(af)
    w.setup()
    word = workloads.Word(("pow", ("atom", "e", "e"), 2))
    d_case = ("d", ["d", word.src, "--json"], word)
    code, out, err = w.op(d_case)
    assert w.check(d_case, (code, out, err)) is None
    wrong = json.dumps(dict(json.loads(out), log2=1))
    assert w.check(d_case, (code, wrong, err)) is not None
    assert w.check(d_case, (2, out, err)) is not None

    bad = ("malformed", ["orbit", "(1/3,1/2)", "central"], None)
    assert w.check(bad, w.op(bad)) is None
    assert w.check(bad, (0, "", "")) is not None

    orbit = ("orbit", ["orbit", "central", "(0,1/2)", "--max-len", "3",
                       "--json"], None)
    code, out, err = w.op(orbit)
    assert json.loads(out)["found"] and w.check(orbit, (code, out, err)) is None
    wrong = json.dumps({"found": True, "word": "b", "length": 1})
    assert w.check(orbit, (code, wrong, err)) is not None


def _ticking_tracer():
    """A tracer whose clock advances by one on every read."""
    ticks = iter(range(1000))
    return tracer.Tracer(clock=lambda: float(next(ticks)))


def test_self_time_on_a_synthetic_span_tree():
    tr = _ticking_tracer()

    def leaf():
        return None

    def agg_body():
        return inner()

    def outer_body():
        inner()
        agg()
        return inner()

    inner = tr.span("inner", leaf)
    agg = tr.aggregated("agg", agg_body)
    outer = tr.span("outer", outer_body)
    tr.enabled = True
    tr.op = 5
    outer()
    # clock reads: outer 0, inner 1-2, agg 3, inner 4-5, agg 6, inner 7-8,
    # outer 9.  The span inside the aggregated call is a child of `outer`
    # and is taken out of the aggregated call's self time, not of outer's.
    assert tr.spans() == [("outer", 0.0, 9.0, -1, 5, 9.0 - 1 - 3 - 1),
                          ("inner", 1.0, 2.0, 0, 5, 1.0),
                          ("inner", 4.0, 5.0, 0, 5, 1.0),
                          ("inner", 7.0, 8.0, 0, 5, 1.0)]
    assert tr.agg_calls["agg"] == 1
    assert tr.agg_self["agg"] == 3.0 - 1
    # every tick of the run is counted exactly once
    assert sum(s[5] for s in tr.spans()) + tr.agg_self["agg"] == 9.0


def test_recursion_folds_into_one_span_and_disabled_calls_are_untraced():
    tr = _ticking_tracer()

    def fact(n):
        return 1 if n == 0 else n * fact(n - 1)

    fact = tr.span("fact", fact)
    assert fact(3) == 6
    assert tr.spans() == []
    tr.enabled = True
    assert fact(3) == 6
    assert tr.spans() == [("fact", 0.0, 1.0, -1, -1, 1.0)]


def _worker(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")]
                         + list(args), capture_output=True, text=True,
                         check=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


@pytest.mark.parametrize("name,ops", [("word_eval", 15), ("cli_mix", 20),
                                      ("component_solve", 60)])
def test_traced_run_matches_untraced_run(name, ops):
    base = ["--workload", name, "--seed", "5", "--ops", str(ops)]
    plain = _worker(*base)
    t1 = _worker(*base, "--trace")
    t2 = _worker(*base, "--trace")
    assert plain["failed"] == t1["failed"] == 0
    assert plain["digest"] == t1["digest"] == t2["digest"]
    calls1 = {k: v for k, v in t1["trace"].items() if k.endswith(".calls")}
    calls2 = {k: v for k, v in t2["trace"].items() if k.endswith(".calls")}
    assert calls1 == calls2
    assert sum(calls1.values()) > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "cli_mix", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert not out.stdout.strip()
