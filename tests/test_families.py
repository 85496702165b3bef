"""Base families: named small graphs and the labeled double-chain bases."""

import pytest

from soltes.core import (delete_vertex, is_connected, profile, soltes_report,
                         wiener, _bfs_raw, _wieners)
from soltes.families import complete, cycle, g_t_r, path, wheel
from soltes.plan import Infeasible, f_poly, feasible_q, q_range


def test_named_small_graphs():
    assert wiener(cycle(11)) == 165
    assert wiener(complete(7)) == 21
    assert wiener(path(4)) == 10
    assert profile(cycle(6))["girth"] == 6
    w = wheel(9)
    assert w.graph.n == 9
    assert w["hub"] == 0
    assert w.graph.degree(w["hub"]) == 8
    with pytest.raises(ValueError):
        wheel(3)


def test_wheel_hub_effects():
    w9 = wheel(9)
    assert wiener(w9.graph) == 56
    assert wiener(delete_vertex(w9.graph, w9["hub"])) == 64
    w8 = wheel(8)
    assert wiener(w8.graph) == 42
    assert wiener(delete_vertex(w8.graph, w8["hub"])) == 42
    rep = soltes_report(w8.graph)
    assert w8["hub"] in rep.soltes_set


def test_base_shape():
    for t in (1, 2, 3):
        base = g_t_r(t, 1)
        g = base.graph
        assert g.n == 8 * t + 8
        degs = sorted(g.degree(v) for v in range(g.n))
        # the two pendant tree roots are the only non-cubic vertices
        assert degs == [1, 1] + [3] * (g.n - 2)
        assert g.degree(base["v1"]) == 1
        assert g.degree(base["v2"]) == 1
        assert is_connected(g)
        assert base["u1"] != base["u2"]
        assert base["u2"] in g.adj[base["u1"]]


def test_base_deletion_gap_matches_polynomial():
    # the builder measures the gap; f_poly is the closed form behind qrange,
    # so the two must give the same q window wherever one exists
    for t in range(1, 41):
        base = g_t_r(t, 1)
        g = base.graph
        w, w_u1, w_u2 = _wieners(g, [None, base["u1"], base["u2"]])
        assert w_u1 - w == w_u2 - w == f_poly(t), t
        delta = _bfs_raw(g.adj, g.n, base["v1"])[base["u1"]]
        if t < 3:
            with pytest.raises(Infeasible):
                feasible_q(w_u1 - w, delta, t, 1)
        else:
            assert feasible_q(w_u1 - w, delta, t, 1) == q_range(t), t


def test_base_center_distance():
    for t in range(1, 41):
        base = g_t_r(t, 1)
        g = base.graph
        assert _bfs_raw(g.adj, g.n, base["v1"])[base["u1"]] == 3 * t + 3
        assert _bfs_raw(g.adj, g.n, base["v2"])[base["u2"]] == 3 * t + 3


def test_fanned_base_shape():
    for t, r in ((1, 2), (2, 2), (3, 2), (2, 3)):
        base = g_t_r(t, r)
        g = base.graph
        chains = 2 ** (r - 1)
        assert g.n == 8 * t * chains + 2 * (chains - 1) + 8
        degs = sorted(g.degree(v) for v in range(g.n))
        assert degs == [1, 1] + [3] * (g.n - 2)
        centers = base["centers"]
        assert len(centers) == 2 ** r
        assert _bfs_raw(g.adj, g.n, base["v1"])[base["u1"]] == 3 * t + r + 2


def test_fanned_base_centers_interchangeable():
    base = g_t_r(3, 2)
    g = base.graph
    w = wiener(g)
    gaps = {wiener(delete_vertex(g, c)) - w for c in base["centers"]}
    assert len(gaps) == 1
    assert gaps == {83}


def test_single_chain_fan_agrees_with_base():
    # at r = 1 there are no fan trees: the chain's ends hang off z1 and z2
    b = g_t_r(2, 1)
    assert b.graph.n == 8 * 2 + 8
    assert len(b["centers"]) == 2
    assert b["z1"] in b.graph.adj[0]
    assert b["z2"] in b.graph.adj[4 * (2 * 2 - 1) + 3]


def test_family_constructors_reject_bad_sizes():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        g_t_r(0, 1)
    with pytest.raises(ValueError):
        g_t_r(2, 0)
