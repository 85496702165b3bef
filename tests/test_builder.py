"""Attachment pipeline: tree growth, red/blue completion, full builds."""

import os
import subprocess
import sys

import pytest

from soltes.builder import (assemble, build_many_soltes, build_two_soltes,
                            place_blue_edges, place_red_edges, realize_trees,
                            verify_construction)
from soltes.core import (INFINITE, Graph, _check_automorphism, _find, _join,
                         _wieners, delete_vertex, is_biconnected,
                         soltes_report, wiener)
from soltes.families import g_t_r
from soltes.plan import ConstructionError, Infeasible, d_of, f_poly


def grow(layers, t=3):
    """realize_trees on the ring g_t_r(t, 1), at its delta = 3t + 3."""
    return realize_trees(g_t_r(t, 1), t, 3 * t + 3, layers)


def build_shape(layers, t=3):
    plan = grow(layers, t)
    place_red_edges(plan)
    place_blue_edges(plan)
    return assemble(plan), plan


def assert_structural(h, plan):
    rep = verify_construction(h, plan)
    assert rep["order"], rep
    assert rep["regular"], rep
    assert rep["biconnected"], rep
    assert rep["layering"], rep
    return rep


SHAPES = [
    (2,),            # joint tail with depth one
    (2, 2),
    (4,),            # single-level cycle
    (3, 3),
    (2, 2, 2),
    (4, 8, 8),
    (4, 6, 9, 1),    # ends in a contraction
    (4, 5, 1),
    (3, 3, 5, 7),
    (2, 4, 6, 6),
    (2, 3, 5, 6, 4),
    (2, 2, 3, 4, 5, 4),
]


@pytest.mark.parametrize("layers", SHAPES)
def test_shape_produces_sound_graph(layers):
    h, plan = build_shape(layers)
    assert_structural(h, plan)
    assert h.n == plan.base.graph.n + sum(layers)
    assert plan.q == sum(layers) // 2


def test_tree_split_and_growth_order():
    plan = grow((3, 3, 5, 7))
    base = plan.base
    n0 = base.graph.n
    # level one: two vertices to the first tree, one to the second
    assert plan.levels[1] == ([n0, n0 + 1], [n0 + 2])
    parent, level, tree = plan.tree_parents[n0]
    assert parent == base["v1"] and level == 1 and tree == 1
    assert plan.tree_parents[n0 + 2][0] == base["v2"]
    # odd layer sizes always favour the first tree
    assert len(plan.levels[2][0]) == 2 and len(plan.levels[2][1]) == 1
    assert len(plan.levels[3][0]) == 3 and len(plan.levels[3][1]) == 2


def test_tree_rejects_overfull_layer():
    # 2 -> 6 grows faster than doubling: three children under one parent
    # in the larger tree
    with pytest.raises(ValueError, match="faster than doubling"):
        grow((2, 6, 6))
    # the plan checks every layer condition where the sequence enters
    with pytest.raises(ValueError, match="odd total"):
        grow((3, 3, 5))


def test_red_edges_follow_parity_rule():
    for layers, want in [
        ((3, 3, 5, 7), [(0, 1), (2, 3)]),
        ((4, 8, 8), []),
        ((2, 3, 5, 6, 4), [(1, 2)]),
        ((2, 2, 3, 4, 5, 4), [(2, 3), (3, 4)]),
    ]:
        plan = grow(layers)
        place_red_edges(plan)
        got = []
        for x, y in plan.red_edges:
            up = plan.tree_parents[x][1] if x in plan.tree_parents else 0
            got.append((up, plan.tree_parents[y][1]))
        assert got == want, layers


def test_red_edge_never_doubles_a_tree_edge():
    for layers in SHAPES:
        _, plan = build_shape(layers)
        for x, y in plan.red_edges:
            assert plan.tree_parents[y][0] != x


def test_blue_edges_stay_within_a_level():
    for layers in ((3, 3, 5, 7), (2, 4, 6, 6), (4, 6, 9, 1)):
        h, plan = build_shape(layers)
        levels = {}
        for v, (_, lvl, _) in plan.tree_parents.items():
            levels[v] = lvl
        levels[plan.base["v1"]] = 0
        levels[plan.base["v2"]] = 0
        for a, b in plan.blue_edges:
            assert abs(levels[a] - levels[b]) <= 1
            if levels[a] != levels[b]:
                # only the closing moves of a final two-layer may cross
                assert max(levels[a], levels[b]) == len(plan.build_layers)


def test_leaf_counts_balanced_between_trees():
    for layers in SHAPES:
        plan = grow(layers)
        for i in range(1, len(plan.levels) - 1):
            t1, t2 = plan.levels[i]
            l1 = sum(1 for v in t1 if v not in plan._children)
            l2 = sum(1 for v in t2 if v not in plan._children)
            assert abs(l1 - l2) <= 1


def test_contraction_case_bookkeeping():
    h, plan = build_shape((4, 6, 9, 1))
    assert plan.contraction is not None
    assert len(plan.contraction) == 3
    # the triple occupied the last three pre-contraction ids
    assert min(plan.contraction) == h.n - 1
    assert plan.levels[-1] == ([min(plan.contraction)], [])


def test_exact_target_shape_gives_soltes_pair():
    # this shape reaches the deletion gap of the t=3 base exactly
    assert d_of((2, 4, 6, 6), 12) == f_poly(3)
    h, plan = build_shape((2, 4, 6, 6))
    rep = assert_structural(h, plan)
    assert rep["wiener_gap"] == 0
    w = wiener(h)
    assert wiener(delete_vertex(h, plan.base["u1"])) == w
    assert wiener(delete_vertex(h, plan.base["u2"])) == w


def test_build_two_soltes_default_and_explicit_q():
    h, plan = build_two_soltes(3)
    assert plan.q == 9
    rep = verify_construction(h, plan)
    assert rep["ok"] and rep["wiener_gap"] == 0
    assert h.n == 8 * 3 + 8 + 2 * 9
    h2, plan2 = build_two_soltes(4, 19)
    assert plan2.q == 19
    assert verify_construction(h2, plan2)["ok"]


def test_verify_construction_reports_a_disconnected_build():
    # Cutting every edge of one last-level vertex leaves it isolated: the
    # report comes back not ok, with no arithmetic on INFINITE.
    h, plan = build_two_soltes(3)
    x = plan.levels[-1][0][0]
    cut = Graph(h.n, [(u, v) for u, v in h.edges() if x not in (u, v)])
    rep = verify_construction(cut, plan)
    assert rep["ok"] is False
    assert rep["wiener_gap"] is INFINITE
    assert not rep["regular"] and not rep["biconnected"]
    assert not rep["layering"]
    assert not any(rep["centers"].values())


def test_build_two_soltes_argument_errors():
    with pytest.raises(Infeasible):
        build_two_soltes(2)
    # a q outside the window is bad input, not an infeasible gap
    for q in (8, 10):
        with pytest.raises(ValueError) as err:
            build_two_soltes(3, q)
        assert not isinstance(err.value, Infeasible)


def test_build_many_infeasible_names_gap_and_interval():
    with pytest.raises(Infeasible) as err:
        build_many_soltes(3, 2)
    msg = str(err.value)
    assert "gap 83" in msg and "[1, 2]" in msg


@pytest.mark.parametrize("r,gap,least", [(1, -32, 14), (2, -61, 16)])
def test_build_many_gap_below_every_q(r, gap, least):
    # at t = 1 even q = 1 adds more than the gap: no interval was searched
    with pytest.raises(Infeasible) as err:
        build_many_soltes(1, r)
    msg = str(err.value)
    assert f"gap {gap} at t=1, r={r} is below d_min(1) = {least}" in msg
    assert "[1, 0]" not in msg


def test_build_many_r2():
    h, plan = build_many_soltes(4, 2)
    rep = verify_construction(h, plan)
    assert rep["ok"]
    centers = plan.base["centers"]
    assert len(centers) == 4
    assert plan.to_dict()["r"] == 2
    w = wiener(h)
    for c in centers:
        assert wiener(delete_vertex(h, c)) == w
    assert is_biconnected(h)


def _workload_build(r, t, q, n):
    marks = ()
    if n > 304:
        marks = pytest.mark.skipif(not os.environ.get("SOLTES_EXTENDED"),
                                   reason="about 8 s of scans for the ten "
                                          "largest; set SOLTES_EXTENDED=1")
    return pytest.param(r, t, q, n, marks=marks, id=f"r{r}-t{t}-q{q}")


# (r, t, q, order) of the 27 construct workload builds: r = 1 at both ends
# of q_range(t), and r = 2 and 3 at the smallest q (the CLI default), as in
# perfbench/workloads.py CONSTRUCT.
WORKLOAD_BUILDS = [_workload_build(*row) for row in [
    (1, 3, 9, 50), (1, 4, 17, 74), (1, 5, 27, 102), (1, 6, 38, 132),
    (1, 7, 50, 164), (1, 8, 64, 200), (1, 9, 78, 236), (1, 10, 94, 276),
    (1, 11, 110, 316), (1, 12, 128, 360),
    (1, 4, 21, 82), (1, 5, 38, 124), (1, 6, 59, 174), (1, 7, 85, 234),
    (1, 8, 116, 304), (1, 9, 152, 384), (1, 10, 192, 472), (1, 11, 238, 572),
    (2, 4, 11, 96), (2, 6, 31, 168), (2, 8, 56, 250), (2, 10, 85, 340),
    (2, 12, 118, 438),
    (3, 6, 6, 218), (3, 8, 30, 330), (3, 10, 58, 450), (3, 12, 90, 578),
]]


@pytest.mark.parametrize("r,t,q,n", WORKLOAD_BUILDS)
def test_workload_build_soltes_set_is_pinned(r, t, q, n):
    # The paper promises at least 2^r removable vertices.  Each build has
    # exactly its 2^r centers, except t = 5 at q = 27, where vertex 57, a
    # level-5 vertex of the v2 tree, is removable too.
    h, plan = build_many_soltes(t, r, None if r > 1 else q)
    assert (h.n, plan.q) == (n, q)
    extra = ()
    if (r, t, q) == (1, 5, 27):
        extra = (57,)
        assert plan.tree_parents[57][1:] == (5, 2)
    want = tuple(sorted(plan.labels["centers"] + extra))
    assert soltes_report(h).soltes_set == want
    if n <= 150:
        nx = pytest.importorskip("networkx")
        g = nx.Graph(h.edges())
        w = nx.wiener_index(g)
        found = []
        for v in range(n):
            gv = g.copy()
            gv.remove_node(v)
            if nx.wiener_index(gv) == w:
                found.append(v)
        assert tuple(found) == want


def extend(base, n):
    """The base's automorphisms on n >= base.graph.n ids, fixing the rest."""
    tail = tuple(range(base.graph.n, n))
    return [perm + tail for perm in base.automorphisms]


def assert_center_orbits(g, base, perms):
    # 2^(r-1) - 1 chain swaps and the mirror, each an automorphism of g
    # (ValueError otherwise); the swaps alone move u1 exactly onto
    # centers[0::2] and u2 exactly onto centers[1::2], and with the mirror
    # the group moves u1 exactly onto all 2^r centers
    centers = base["centers"]
    assert len(perms) == len(centers) // 2
    for perm in perms:
        _check_automorphism(g, perm)
    mirror = perms[-1]
    assert [mirror[base[x]] for x in ("u1", "z1", "c1", "p1", "v1")] == [
        base[x] for x in ("u2", "z2", "c2", "p1", "v1")]

    def orbit_of(group, v):
        parent = list(range(g.n))
        for perm in group:
            _join(parent, perm)
        return {x for x in range(g.n) if _find(parent, x) == _find(parent, v)}

    for part in (centers[0::2], centers[1::2]):
        assert orbit_of(perms[:-1], part[0]) == set(part)
    assert orbit_of(perms, base["u1"]) == set(centers)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_chain_swaps_are_automorphisms_of_the_base(r):
    for t in (1, 2, 3):
        base = g_t_r(t, r)
        assert_center_orbits(base.graph, base, base.automorphisms)


@pytest.mark.parametrize("r,t", [p.values[:2] for p in WORKLOAD_BUILDS
                                 if p.values[0] > 1])
def test_chain_swaps_are_automorphisms_of_workload_builds(r, t):
    # the attachment hangs off v1 and v2, which every swap fixes
    h, plan = build_many_soltes(t, r)
    assert_center_orbits(h, plan.base, extend(plan.base, h.n))


@pytest.mark.parametrize("r,t,q,n", [p for p in WORKLOAD_BUILDS
                                     if p.values[0] > 1])
def test_scan_through_chain_swaps_finds_the_centers(r, t, q, n):
    # one deletion per orbit of the swaps and the mirror; the pinned test
    # above scans every vertex of the same builds
    h, plan = build_many_soltes(t, r)
    report = soltes_report(h, automorphisms=extend(plan.base, h.n))
    assert report.soltes_set == tuple(sorted(plan.labels["centers"]))


def every_center_oracle(h, plan):
    """verify_construction's centers and wiener_gap, every center deleted."""
    base = plan.base
    w = wiener(h)
    after = {c: wiener(delete_vertex(h, c)) for c in base["centers"]}
    w_u1 = after[base["u1"]]
    gap = INFINITE if INFINITE in (w, w_u1) else w - w_u1
    return {c: w is not INFINITE and x == w for c, x in after.items()}, gap


def count_wieners(monkeypatch):
    """Record how many entries each verification sweep asks for."""
    asked = []

    def counting(g, removed):
        asked.append(len(removed))
        return _wieners(g, removed)

    monkeypatch.setattr("soltes.core._wieners", counting)
    return asked


@pytest.mark.parametrize("t,r", [
    (3, 1), (4, 2), (6, 3),
    pytest.param(14, 4, marks=pytest.mark.skipif(
        not os.environ.get("SOLTES_EXTENDED"),
        reason="n = 956 oracle; set SOLTES_EXTENDED=1")),
])
def test_verify_construction_evaluates_one_center_per_orbit(monkeypatch, t, r):
    # W(h) and one center for the one orbit: 2 entries at every r, where
    # brute force on every center asks for 2^r + 1
    h, plan = build_many_soltes(t, r)
    asked = count_wieners(monkeypatch)
    rep = verify_construction(h, plan)
    assert asked == [2]
    assert rep["ok"]
    assert (rep["centers"], rep["wiener_gap"]) == every_center_oracle(h, plan)


@pytest.mark.parametrize("t,r,entries", [(4, 2, 5), (6, 3, 7)])
def test_verify_construction_skips_a_swap_the_build_breaks(monkeypatch, t, r,
                                                           entries):
    # Dropping a centre-to-tip edge of chain 1's first diamond breaks the
    # swaps that move chain 1: the one swap at r = 2, two of the three at
    # r = 3.  It breaks the mirror too, which maps that edge onto the same
    # pair of chain 1's last diamond, still an edge.  They are skipped, not
    # raised.  Chains 0 and 1 get a slice per center; at r = 3 chains 2
    # and 3 still share theirs, one per end, as the swap of the two holds
    # and the mirror does not.  So the entries are W(h) and 4 centers at
    # r = 2, W(h) and 6 at r = 3.  Only chain 1's centers stop being
    # removable, so a value copied across a broken swap would show.
    h, plan = build_many_soltes(t, r)
    a = 4 * 2 * t + 1
    cut = Graph(h.n, [e for e in h.edges() if e != (a, a + 2)])
    assert cut.m == h.m - 1
    asked = count_wieners(monkeypatch)
    rep = verify_construction(cut, plan)
    assert asked == [entries]
    assert rep["ok"] is False and not rep["regular"]
    centers = plan.base["centers"]
    assert [c for c in centers if not rep["centers"][c]] == list(centers[2:4])
    assert (rep["centers"], rep["wiener_gap"]) == every_center_oracle(cut, plan)


@pytest.mark.parametrize("t,r", [(3, 1), (4, 2), (6, 3)])
def test_verify_construction_skips_a_mirror_the_build_breaks(monkeypatch, t,
                                                            r):
    # Dropping the head edge z1-c1 breaks the mirror, which maps it onto
    # z2-c2, and no chain swap, as every swap fixes the head.  u1's and
    # u2's orbits then get a slice each: 3 entries at every r.  Deleting u1
    # and u2 no longer gives the same W, so a value copied across the
    # broken mirror would show.
    h, plan = build_many_soltes(t, r)
    base = plan.base
    cut = Graph(h.n, [e for e in h.edges() if e != (base["z1"], base["c1"])])
    assert cut.m == h.m - 1
    asked = count_wieners(monkeypatch)
    rep = verify_construction(cut, plan)
    assert asked == [3]
    assert wiener(delete_vertex(cut, base["u1"])) != wiener(
        delete_vertex(cut, base["u2"]))
    assert (rep["centers"], rep["wiener_gap"]) == every_center_oracle(cut, plan)


def test_plan_serialization_roundtrips_json():
    import json

    h, plan = build_two_soltes(3)
    blob = json.loads(json.dumps(plan.to_dict()))
    assert blob["t"] == 3 and blob["q"] == 9 and blob["order"] == h.n
    assert blob["layers"] == [3, 3, 5, 7]
    assert len(blob["tree_parents"]) == 2 * 9
    assert blob["labels"]["u1"] == plan.base["u1"]
    assert blob["r"] == 1
    # r is read off the base's 2^r centers
    _, plan = build_many_soltes(6, 3)
    assert json.loads(json.dumps(plan.to_dict()))["r"] == 3


# Doubles the first tree edge of a fresh plan.
PLANT_PARALLEL_EDGE = """
from soltes.builder import _add_edge, realize_trees
from soltes.families import g_t_r
plan = realize_trees(g_t_r(3, 1), 3, 12, (3, 3))
child, (parent, _, _) = next(iter(plan.tree_parents.items()))
_add_edge(plan, parent, child)
"""


def test_planted_parallel_edge_raises_construction_error():
    assert not issubclass(ConstructionError, ValueError)
    with pytest.raises(ConstructionError, match="parallel edge"):
        exec(PLANT_PARALLEL_EDGE, {})
    # the leading assert proves python -O strips asserts in the child
    r = subprocess.run(
        [sys.executable, "-O", "-c", "assert False\n" + PLANT_PARALLEL_EDGE],
        capture_output=True, text=True)
    # an uncaught ConstructionError: exit 1, as for a failed build
    assert r.returncode == 1, r.stderr
    assert "ConstructionError: parallel edge" in r.stderr
