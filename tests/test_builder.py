"""Attachment pipeline: tree growth, red/blue completion, full builds."""

import subprocess
import sys

import pytest

from soltes.builder import (Infeasible, assemble, build_many_soltes,
                            build_two_soltes, place_blue_edges,
                            place_red_edges, realize_trees,
                            verify_construction)
from soltes.core import (INFINITE, Graph, delete_vertex, is_biconnected,
                         wiener)
from soltes.families import g_t
from soltes.plan import (ConstructionError, LayerSequence, PlanConstants,
                         d_of, f_poly)


def build_shape(layers, t=3):
    base = g_t(t)
    plan = realize_trees(base, PlanConstants(t), LayerSequence(layers))
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
    assert h.n == plan.base.graph.n + 2 * LayerSequence(layers).q


def test_tree_split_and_growth_order():
    base = g_t(3)
    plan = realize_trees(base, PlanConstants(3), LayerSequence((3, 3, 5, 7)))
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
    base = g_t(3)
    # 2 -> 6 needs three children under one parent in the larger tree
    with pytest.raises(ValueError):
        realize_trees(base, PlanConstants(3), LayerSequence((2, 6, 6)))


def test_red_edges_follow_parity_rule():
    for layers, want in [
        ((3, 3, 5, 7), [(0, 1), (2, 3)]),
        ((4, 8, 8), []),
        ((2, 3, 5, 6, 4), [(1, 2)]),
        ((2, 2, 3, 4, 5, 4), [(2, 3), (3, 4)]),
    ]:
        base = g_t(3)
        plan = realize_trees(base, PlanConstants(3), LayerSequence(layers))
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
        base = g_t(3)
        plan = realize_trees(base, PlanConstants(3), LayerSequence(layers))
        for i in range(1, len(plan.levels) - 1):
            t1, t2 = plan.levels[i]
            l1 = sum(1 for v in t1 if plan._children[v] == 0)
            l2 = sum(1 for v in t2 if plan._children[v] == 0)
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
    c = PlanConstants(3)
    assert d_of(LayerSequence((2, 4, 6, 6)), c) == f_poly(3)
    h, plan = build_shape((2, 4, 6, 6))
    rep = assert_structural(h, plan)
    assert rep["wiener_gap"] == 0
    w = wiener(h)
    assert wiener(delete_vertex(h, plan.base["u1"])) == w
    assert wiener(delete_vertex(h, plan.base["u2"])) == w


def test_build_two_soltes_default_and_explicit_q():
    h, plan = build_two_soltes(3)
    assert plan.L.q == 9
    rep = verify_construction(h, plan)
    assert rep["ok"] and rep["wiener_gap"] == 0
    assert h.n == 8 * 3 + 8 + 2 * 9
    h2, plan2 = build_two_soltes(4, 19)
    assert plan2.L.q == 19
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
from soltes.families import g_t
from soltes.plan import LayerSequence, PlanConstants
plan = realize_trees(g_t(3), PlanConstants(3), LayerSequence((3, 3)))
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
