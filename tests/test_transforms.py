"""Truncation and line graph operators."""

import pytest

import soltes.core
from soltes.cayley import cayley_graph, group_closure, left_actions
from soltes.codec import parse_permutation
from soltes.core import Graph, is_biconnected, profile, soltes_report, wiener
from soltes.enumeration import gen_regular
from soltes.families import complete, cycle
from soltes.transforms import (line_graph, line_graph_action, truncate,
                               truncation_action)


def test_truncate_k4():
    t = truncate(complete(4))
    p = profile(t)
    assert t.n == 12 and t.m == 18
    assert p["regular"] == 3
    assert p["girth"] == 3
    assert is_biconnected(t)


def test_truncate_rejects_non_cubic():
    with pytest.raises(ValueError):
        truncate(cycle(6))
    with pytest.raises(ValueError):
        truncate(complete(5))


def test_truncate_counts_on_all_small_cubics():
    for g in gen_regular(8, 3):
        t = truncate(g)
        assert t.n == 3 * g.n
        assert t.m == 3 * g.n + g.m
        assert profile(t)["regular"] == 3
        # corner triangles survive as 3n/(cycle space) girth-3 witnesses
        assert profile(t)["girth"] == 3


def test_truncation_of_k33_has_girth_four_free():
    # bipartite base: the only triangles in the truncation are the corners
    k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
    t = truncate(k33)
    assert t.n == 18
    assert profile(t)["bipartite"] is False


def test_line_graph_of_k4_is_octahedron(same_class):
    l = line_graph(complete(4))
    assert l.n == 6 and l.m == 12
    assert profile(l)["regular"] == 4
    oct_edges = [(u, v) for u in range(6) for v in range(u + 1, 6)
                 if v != u + 3 or u >= 3]
    octahedron = Graph(6, [(u, v) for u, v in oct_edges
                           if not (u < 3 and v == u + 3)])
    assert same_class(l, octahedron)


def test_line_graph_of_cycle_is_itself(same_class):
    for n in (3, 5, 8):
        l = line_graph(cycle(n))
        assert same_class(l, cycle(n))


def test_line_graph_regularity_rule():
    for g in gen_regular(8, 3):
        l = line_graph(g)
        assert l.n == g.m
        assert profile(l)["regular"] == 4
        assert l.m == g.m * 2


def test_line_graph_wiener_of_path():
    # edges of a path form a shorter path
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    l = line_graph(p4)
    assert sorted(l.edges()) == [(0, 1), (1, 2)]
    assert wiener(l) == 4


# (degree, generators) of cubic Cayley graphs: K_{3,3}, the 5-prism, the
# truncated tetrahedron (A_4), S_4 on adjacent transpositions, and three
# involutions of degree 6
_SMALL_CUBIC_CAYLEY = [
    (6, ("(1,2,3,4,5,6)", "(1,4)(2,5)(3,6)")),
    (5, ("(1,2,3,4,5)", "(2,5)(3,4)")),
    (4, ("(1,2,3)", "(1,2)(3,4)")),
    (4, ("(1,2)", "(2,3)", "(3,4)")),
    (6, ("(1,2)(3,4)(5,6)", "(1,4)(2,5)(3,6)", "(1,6)(2,3)(4,5)")),
]


def test_orbit_report_on_lifted_left_actions(monkeypatch):
    real = soltes.core._packed_pair_sums
    calls = []

    def counted(g, removed):
        calls.extend(v for v in removed if v is not None)
        return real(g, removed)

    def orbit_and_brute(h, automorphisms):
        calls.clear()
        fast = soltes_report(h, automorphisms=automorphisms)
        evaluated = len(calls)
        assert evaluated >= 1
        brute = soltes_report(h)
        assert fast.wiener == brute.wiener
        assert fast.per_vertex == brute.per_vertex
        assert fast.soltes_set == brute.soltes_set
        assert fast.alpha == brute.alpha
        return evaluated

    monkeypatch.setattr(soltes.core, "_packed_pair_sums", counted)
    for degree, texts in _SMALL_CUBIC_CAYLEY:
        gens = [parse_permutation(t, degree) for t in texts]
        elements = group_closure(gens)
        g = cayley_graph(gens, elements)
        actions = left_actions(gens, elements)
        # left multiplication is transitive on the group elements
        assert orbit_and_brute(g, actions) == 1
        # and has at most 3 orbits on arcs (corners) and on edges
        for op, lift in ((truncate, truncation_action),
                         (line_graph, line_graph_action)):
            lifted = [lift(g, a) for a in actions]
            assert orbit_and_brute(op(g), lifted) <= 3, (texts, op.__name__)


def test_lifts_reject_non_automorphisms():
    c6 = cycle(6)
    swap = [1, 0, 2, 3, 4, 5]  # (1,2) -> (0,2), not an edge
    with pytest.raises(ValueError):
        line_graph_action(c6, swap)
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    with pytest.raises(ValueError):
        truncation_action(k33, [0, 3, 2, 1, 4, 5])  # (0,3) -> (0,1)
