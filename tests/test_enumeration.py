"""Regular-graph generation, the isomorphism test, census classification."""

import itertools
import random

import pytest

from soltes.core import Graph, is_connected, profile
from soltes.enumeration import (TableRow, _ClassStore, classify_table,
                                gen_regular)
from soltes.families import complete


def brute_isomorphic(a, b):
    if a.n != b.n or a.m != b.m:
        return False
    eb = set(b.edges())
    for perm in itertools.permutations(range(a.n)):
        if all(((perm[u], perm[v]) in eb or (perm[v], perm[u]) in eb)
               for u, v in a.edges()):
            return True
    return False


def test_known_connected_cubic_counts():
    for n, want in [(4, 1), (6, 2), (8, 5), (10, 19)]:
        graphs = list(gen_regular(n, 3))
        assert len(graphs) == want
        for g in graphs:
            assert is_connected(g)
            assert profile(g)["regular"] == 3


def test_known_quartic_and_quintic_counts():
    # the generator has no leaf connectivity check: the branch that closes
    # a proper component is cut when that component saturates
    for n, r, want in [(5, 4, 1), (8, 4, 6), (6, 5, 1), (8, 5, 3)]:
        graphs = list(gen_regular(n, r))
        assert len(graphs) == want
        for g in graphs:
            assert is_connected(g)


def test_gen_regular_argument_errors():
    with pytest.raises(ValueError):
        list(gen_regular(5, 3))  # odd n*r
    with pytest.raises(ValueError):
        list(gen_regular(3, 3))  # n must exceed r


def test_emitted_graphs_pairwise_non_isomorphic():
    graphs = list(gen_regular(8, 3))
    for a, b in itertools.combinations(graphs, 2):
        assert not brute_isomorphic(a, b)


def test_isomorphism_test_agrees_with_brute_force(same_class):
    # both directions of the iff, on every pair the generator emits
    pool = [g for n in (4, 6, 8) for g in gen_regular(n, 3)]
    rng = random.Random(6)
    for a, b in itertools.combinations(pool, 2):
        assert same_class(a, b) == brute_isomorphic(a, b)
    for g in pool:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert brute_isomorphic(g, relabeled)
        assert same_class(g, relabeled)


def test_isomorphism_test_separates_k33_and_prism(same_class):
    # same degree sequence and order, different structure
    k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
    prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                      (0, 3), (1, 4), (2, 5)])
    assert not same_class(k33, prism)


def test_isomorphism_test_separates_same_bucket_pair():
    # The 4x4 rook's graph and the Shrikhande graph are both strongly
    # regular (16, 6, 2, 2), so every vertex invariant agrees and they share
    # a bucket; the neighbourhood of a vertex is two triangles in the first
    # and a 6-cycle in the second, so only the first has a K4.
    rook = Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                      if u // 4 == v // 4 or u % 4 == v % 4])
    shrikhande = Graph(16, [
        (4 * i + j, 4 * ((i + a) % 4) + (j + b) % 4)
        for i in range(4) for j in range(4)
        for a, b in ((0, 1), (1, 0), (1, 1))])

    def has_k4(g):
        return any(set(g.adj[u]) & set(g.adj[v]) & set(g.adj[w])
                   for u, v, w in itertools.combinations(range(g.n), 3)
                   if v in g.adj[u] and w in g.adj[u] and w in g.adj[v])

    assert has_k4(rook) and not has_k4(shrikhande)
    store = _ClassStore(16)
    for g in (rook, shrikhande):
        assert store.add([sum(1 << u for u in nbrs) for nbrs in g.adj])
    assert len(store.buckets) == 1


def test_classify_small_rows_have_no_removable_vertices():
    for n in (4, 6, 8, 10):
        row = classify_table(n, 3)
        assert row.counts == {}
        assert row.n == n and row.r == 3


def test_classify_scale_cap():
    with pytest.raises(ValueError):
        classify_table(18, 3)
    with pytest.raises(ValueError):
        classify_table(14, 4)


def test_table_row_consistency_guard():
    row = TableRow(14, 3, 509, {1: 4, 2: 3})
    assert row == TableRow(14, 3, 509, {1: 4, 2: 3})
    assert row != TableRow(14, 3, 509, {1: 4})
    with pytest.raises(ValueError):
        TableRow(4, 3, 1, {1: 2})


def test_complete_graph_is_generated(same_class):
    graphs = list(gen_regular(6, 5))
    assert same_class(graphs[0], complete(6))
