"""Regular-graph generation, the isomorphism test, census classification."""

import gc
import itertools
import random

import pytest

from soltes.core import Graph, _bfs_raw, is_connected, profile
from soltes.enumeration import (TableRow, _ClassStore, _raw_key,
                                _root_min_keys, classify_table, gen_regular)
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


def masks_of(g):
    return [sum(1 << u for u in nbrs) for nbrs in g.adj]


def vertex_key(g, v):
    """_raw_key computed from g.adj with sets and a BFS."""
    dist = _bfs_raw(g.adj, g.n, v)
    levels = tuple(dist.count(d) for d in range(1, max(dist) + 1))
    shared = sorted(len(set(g.adj[v]) & set(g.adj[u])) for u in range(g.n))
    return levels, tuple(shared)


def check_representative(g, r):
    """Connected, r-regular, built as Graph(n, edges) would build it, and
    vertex 0 at a minimal raw key (the generator's root-key filter)."""
    assert is_connected(g)
    assert all(len(a) == r for a in g.adj)
    assert g == Graph(g.n, g.edges()) and g.m == g.n * r // 2
    keys = [vertex_key(g, v) for v in range(g.n)]
    assert keys == [_raw_key(masks_of(g), v) for v in range(g.n)]
    assert keys[0] == min(keys)


def test_known_connected_cubic_counts():
    # OEIS A002851
    for n, want in [(4, 1), (6, 2), (8, 5), (10, 19), (12, 85)]:
        graphs = list(gen_regular(n, 3))
        assert len(graphs) == want
        for g in graphs:
            check_representative(g, 3)
            assert profile(g)["regular"] == 3


def test_known_quartic_and_quintic_counts():
    # OEIS A006820 (quartic) and A006821 (quintic).  The generator has no
    # leaf connectivity check: the branch that closes a proper component
    # is cut when that component saturates.
    rows = [(5, 4, 1), (6, 4, 1), (7, 4, 2), (8, 4, 6), (9, 4, 16),
            (10, 4, 59), (11, 4, 265), (6, 5, 1), (8, 5, 3), (10, 5, 60)]
    for n, r, want in rows:
        graphs = list(gen_regular(n, r))
        assert len(graphs) == want, (n, r)
        for g in graphs:
            check_representative(g, r)


def test_matches_networkx_atlas_up_to_7_vertices(same_class):
    # the atlas lists every graph on at most 7 vertices once per class
    nx = pytest.importorskip("networkx")
    atlas = {}
    for h in nx.graph_atlas_g()[1:]:
        degrees = {d for _, d in h.degree()}
        if len(degrees) == 1 and nx.is_connected(h):
            g = Graph(h.number_of_nodes(), h.edges())
            atlas.setdefault((g.n, degrees.pop()), []).append(g)
    assert len(atlas) == 14 and sum(map(len, atlas.values())) == 16
    for n in range(1, 8):
        for r in range(n):
            if n * r % 2:
                continue
            emitted = list(gen_regular(n, r))
            want = atlas.get((n, r), [])
            assert len(emitted) == len(want), (n, r)
            for h in want:
                assert sum(same_class(h, g) for g in emitted) == 1, (n, r)


def test_store_keeps_a_labelling_whose_vertex_0_is_not_minimal():
    # The root-key filter sits in the generator; the store takes any
    # labelling.  Swap vertex 0 with a largest-key vertex of a cubic graph
    # whose keys are not all equal.
    g = next(g for g in gen_regular(8, 3)
             if len(set(vertex_key(g, v) for v in range(8))) > 1)
    keys = [vertex_key(g, v) for v in range(8)]
    top = max(range(8), key=keys.__getitem__)
    perm = list(range(8))
    perm[0], perm[top] = top, 0
    relabeled = Graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
    masks = masks_of(relabeled)
    assert _root_min_keys(8, masks) is None
    store = _ClassStore(8)
    assert store.add(masks, [vertex_key(relabeled, v) for v in range(8)])
    assert not store.add(masks_of(g), keys)


@pytest.mark.parametrize("n,r,leaves,stored",
                         [(12, 3, 1201, 513), (10, 4, 1692, 524)])
def test_leaf_counts_are_pinned(monkeypatch, n, r, leaves, stored):
    # Leaves that reach the root-key filter, and those that pass it into
    # the class store.  A weaker second-level cut in the recursion raises
    # the first count, a weaker root-key filter the second; with neither,
    # all 2,999 leaves of cubic n=12 reached the store.
    import soltes.enumeration as enumeration
    calls = {"filter": 0, "store": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(enumeration, "_root_min_keys",
                        counted("filter", enumeration._root_min_keys))
    monkeypatch.setattr(enumeration, "_mask_keys",
                        counted("store", enumeration._mask_keys))
    list(gen_regular(n, r))
    assert calls == {"filter": leaves, "store": stored}


def test_search_leaves_no_cyclic_garbage():
    # Recursive closures that outlive their call hold the search state
    # until the cyclic collector runs, which raised the peak memory of
    # repeated census calls.
    gc.collect()
    gc.disable()
    try:
        assert len(list(gen_regular(10, 3))) == 19
        assert classify_table(8, 3).total == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_r0_has_one_connected_graph():
    # n isolated vertices are connected only for n = 1
    assert [g.n for g in gen_regular(1, 0)] == [1]
    assert list(gen_regular(3, 0)) == []


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
        assert store.add(masks_of(g), [vertex_key(g, v) for v in range(16)])
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
