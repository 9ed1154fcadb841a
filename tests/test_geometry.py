"""cell_at against hang_chain on random cells of the Airplane and the
Basilica, and its rejection of points that lie on no line.  Points are
reduced (numerator, denominator) pairs."""

import pytest
from hypothesis import given, settings, strategies as st

from airframe import geometry
from airframe.core import child, parent
from airframe.geometry import AIRPLANE, BASILICA

H = (1, 2)
SYSTEMS = {"airplane": AIRPLANE, "basilica": BASILICA}


def same_line(a, b):
    """Do two line-starting cells (None: the central circle) start the
    same line?  The arcs of one circle are started by siblings."""
    return a == b or bool(a and b and a[1] and b[1]
                          and parent(a) == parent(b))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cell_at_inverts_hang_chain(name, data):
    system = SYSTEMS[name]
    eid, color, _, _ = data.draw(st.sampled_from(system.base.edges))
    c = (eid, ())
    for _ in range(data.draw(st.integers(0, 12))):
        edges = system.rules[color].graph.edges
        i = data.draw(st.integers(0, len(edges) - 1))
        c, color = child(c, i), edges[i][1]
    points = geometry.hang_chain(system, c)
    cell = geometry.cell_at(system, points[:-1])
    assert geometry.hang_chain(system, cell)[:-1] == points[:-1]
    start = geometry.line_of(system, cell)
    assert start in (None, cell)
    assert same_line(start, geometry.line_of(system, c))


def test_cell_at_reads_the_base_lines():
    assert geometry.cell_at(AIRPLANE, ()) == ("rT", ())
    assert geometry.cell_at(BASILICA, ()) == ("ct", ())
    assert geometry.cell_at(AIRPLANE, ((0, 1),)) == ("bR", ())
    assert geometry.cell_at(AIRPLANE, (H,)) == ("bL", ())
    assert geometry.cell_at(BASILICA, ((0, 1),)) == ("lp", ())
    assert geometry.cell_at(BASILICA, (H,)) == ("lq", ())
    # a point that is no hang point on the central circle opens a line
    # under the central arc it is the midpoint of
    assert geometry.cell_at(AIRPLANE, ((1, 4),)) == ("rT", (2,))
    assert geometry.cell_at(BASILICA, ((3, 4),)) == ("cb", (1,))


@pytest.mark.parametrize("name, points, message", [
    ("airplane", ((1, 3),), "not dyadic: 1/3"),
    ("basilica", ((1, 4), (1, 3)), "not dyadic: 1/3"),
    # the contact point of a loop
    ("basilica", ((1, 4), (0, 1)), "0 is not on this line"),
    # 0 and 1/2 on an inner circle are where its ray passes through
    ("airplane", ((1, 4), H, H), "1/2 is not on this line"),
    ("airplane", ((1, 4), H, (0, 1)), "0 is not on this line"),
    # at or beyond 1, or below 0
    ("airplane", ((1, 1),), "1 is not on this line"),
    ("airplane", ((1, 4), (1, 1)), "1 is not on this line"),
    ("basilica", (H, (1, 1)), "1 is not on this line"),
    ("basilica", ((3, 2),), "3/2 is not on this line"),
    ("basilica", ((-1, 4),), "-1/4 is not on this line"),
])
def test_cell_at_rejects_points_on_no_line(name, points, message):
    with pytest.raises(ValueError) as err:
        geometry.cell_at(SYSTEMS[name], points)
    assert str(err.value) == message
