from fractions import Fraction

import pytest

from airframe.core import (Expansion, child, common_refinement,
                           format_address, parent, parse_address,
                           realize_graph, validate_system)
from airframe.systems import (airplane, basilica, circle_system,
                              circular_airplane, interval_system)


def test_address_roundtrip():
    for s in ["bL", "rT.0", "bR.3-0-1", "rB.2-0"]:
        assert format_address(parse_address(s)) == s
    assert parse_address("bL.3-0") == ("bL", (3, 0))
    assert parent(("bL", (3, 0))) == ("bL", (3,))
    assert parent(("bL", ())) is None
    assert child(("rT", ()), 2) == ("rT", (2,))


def test_systems_validate():
    for builder in (airplane, basilica, interval_system, circle_system,
                    circular_airplane):
        assert validate_system(builder())


def full_expansion(system, n):
    """Every edge expanded n times."""
    exp = Expansion(system)
    for _ in range(n):
        for leaf in exp.leaves():
            exp = exp.expand(leaf)
    return exp


def test_airplane_leaf_counts():
    A = airplane()
    for n, count in [(0, 4), (1, 14), (2, 48)]:
        assert len(full_expansion(A, n).leaves()) == count


def test_basilica_leaf_counts():
    B = basilica()
    for n in range(4):
        assert len(full_expansion(B, n).leaves()) == 4 * 3 ** n


def test_realized_base_graph():
    A = airplane()
    g = realize_graph(Expansion(A))
    assert len(g.edges) == 4
    assert len(g.vertices()) == 4
    tips = [v for v in g.vertices() if g.degree(v) == 1]
    assert len(tips) == 2


def test_expansion_closure_enforced():
    A = airplane()
    with pytest.raises(ValueError):
        Expansion(A, {("rT", (0,))})  # parent rT missing


def test_expand_only_leaves():
    A = airplane()
    e = Expansion(A).expand(("rT", ()))
    with pytest.raises(ValueError):
        e.expand(("rT", ()))
    assert ("rT", (2,)) in e.leaves()


def test_common_refinement():
    A = airplane()
    e1 = Expansion(A).expand(("rT", ()))
    e2 = Expansion(A).expand(("bL", ()))
    m = common_refinement(e1, e2)
    assert set(m.internal) == {("rT", ()), ("bL", ())}
    with pytest.raises(ValueError):
        common_refinement(e1, Expansion(airplane()))  # distinct instances


def test_system_json_roundtrip():
    A = airplane()
    from airframe.core import ReplacementSystem
    back = ReplacementSystem.from_json(A.to_json())
    assert back.to_json() == A.to_json()


def test_dot_export_mentions_colors():
    A = airplane()
    dot = realize_graph(Expansion(A)).to_dot()
    assert "digraph" in dot
    assert "red" in dot and "blue" in dot
