"""Regular-graph generation, the isomorphism test, census classification."""

import gc
import hashlib
import itertools
import marshal
import os
import random
import weakref

import pytest

import soltes.core
import soltes.enumeration as enumeration
from conftest import closed_walks, key_rows, leaf, vertex_key
from soltes.core import Graph, is_connected, profile, soltes_report
from soltes.enumeration import (TableRow, _ClassStore, _leaf_keys,
                                classify_table, gen_regular)
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


def walk_signature(g):
    return sorted(closed_walks(g, v) for v in range(g.n))


def walk_columns(raw, n):
    """Each vertex's closed-walk counts, read back from _leaf_keys' rows."""
    width = len(raw) // n
    return [tuple(int.from_bytes(raw[i + j:i + j + 8], "big")
                  for j in range(2 * n, width, 8))
            for i in range(0, len(raw), width)]


def store_add(store, g):
    return store.add(*leaf(g))


def at_shards(monkeypatch, shards):
    """Split gen_regular's search into this many shards.  The pins on what
    reaches the filter and the store count calls in this process, so they
    run at one shard, where the search is a single pass."""
    monkeypatch.setattr(enumeration, "_shards", lambda: shards)


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def prism():
    return Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                     (0, 3), (1, 4), (2, 5)])


def k33():
    return Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])


def petersen():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def rook_and_shrikhande():
    """The 4x4 rook's graph and the Shrikhande graph: both strongly regular
    (16, 6, 2, 2), so every vertex invariant agrees."""
    rook = Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                      if u // 4 == v // 4 or u % 4 == v % 4])
    shrikhande = Graph(16, [
        (4 * i + j, 4 * ((i + a) % 4) + (j + b) % 4)
        for i in range(4) for j in range(4)
        for a, b in ((0, 1), (1, 0), (1, 1))])
    return rook, shrikhande


def check_representative(g, r):
    """Connected, r-regular, built as Graph(n, edges) would build it, and
    vertex 0 at a minimal raw key (the generator's root-key filter)."""
    assert is_connected(g)
    assert all(len(a) == r for a in g.adj)
    assert g == Graph(g.n, g.edges()) and g.m == g.n * r // 2
    keys = [vertex_key(g, v) for v in range(g.n)]
    assert list(_leaf_keys([masks_of(g)])) == [key_rows(g)]
    assert keys[0] == min(keys)
    assert keys[1] == min(keys[y] for x in range(g.n) if keys[x] == keys[0]
                          for y in g.adj[x])


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
    relabeled = relabel(g, perm)
    assert list(_leaf_keys([masks_of(relabeled)])) == [None]
    store = _ClassStore(8)
    assert store_add(store, relabeled)
    assert not store_add(store, g)


@pytest.mark.parametrize("n,r,leaves,stored,searches",
                         [(12, 3, 437, 280, 195), (10, 4, 1215, 256, 197)],
                         ids=["cubic-12", "quartic-10"])
def test_leaf_counts_are_pinned(monkeypatch, n, r, leaves, stored,
                                searches):
    # Leaves that reach the root-key filter, and those that pass it into
    # the class store.  A weaker second-level cut in the recursion (on
    # vertex 0 or on vertex 1) raises the first count, a weaker filter on
    # vertex 0's or vertex 1's key the second.  Without the cut at the
    # leaf itself, the first counts were 775 and 1,633; with neither cut
    # nor the vertex-1 filter, cubic n=12 had 1,201 and 513, quartic n=10
    # 1,692 and 524; with no cut or filter at all, all 2,999 leaves of
    # cubic n=12 reached the store.
    # The third count is the store's _isomorphic calls.  Without the
    # closed-walk counts, cubic n=12 made 494, 261 of them failing; with
    # them compared per bucket, 389 while each representative's
    # automorphism orbits were searched for as well, and 205 without those
    # searches (10 failing; quartic n=10 made 198, 1 failing).  With the
    # counts in each vertex's key row, the buckets are pure and a vertex
    # maps only to one with its counts: 195 and 197, none failing.
    # The filter takes leaves in batches, so its count is the sum of the
    # batch lengths.  The dead-end cuts (a new v with too few partners
    # left, a partner that leaves v none) drop only leafless branches:
    # cubic n=14 went from 94,987 nodes to 84,224 and quartic n=11 from
    # 213,917 to 170,209, while all three counts here stayed 437/280/195
    # and 1,215/256/197 (FILTER_DIGESTS pins the leaves themselves).
    at_shards(monkeypatch, 1)
    calls = {"filter": 0, "store": 0, "search": 0}

    def counted(name, fn, weight=lambda args: 1):
        def wrapper(*args):
            calls[name] += weight(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(enumeration, "_leaf_keys",
                        counted("filter", enumeration._leaf_keys,
                                lambda args: len(args[0])))
    monkeypatch.setattr(enumeration, "_mask_keys",
                        counted("store", enumeration._mask_keys))
    monkeypatch.setattr(enumeration, "_isomorphic",
                        counted("search", enumeration._isomorphic))
    list(gen_regular(n, r))
    assert calls == {"filter": leaves, "store": stored, "search": searches}


# sha256 over repr(masks) of every leaf that reaches the class store, in
# order (the key rows are a function of the masks)
STORE_ADD_DIGESTS = {
    (12, 3): "ebfbf1805dbbbfad67f3770d5d16bd79"
             "285f287c89b46bf49044927eada1330f",
    (10, 4): "94a629168d234c78c7c543ebb2d28f3b"
             "ed1741ebf5eb25e311d34fa18fc1284a",
}


# sha256 over repr(masks) of every leaf passed to the root-key filter, in
# order; computed before the dead-end cuts, so they drop no leaf
FILTER_DIGESTS = {
    (12, 3): "76db0a97bb60b90aae5668417839f764"
             "40d74bb94f81ef2f09d0ab4cb517fa1d",
    (10, 4): "bf80daa6e513b6d6b0461949301d4284"
             "3793d11569d9fa0fa537dcc454653ccb",
}


def hashed_run(monkeypatch, n, r):
    """gen_regular(n, r)'s classes and the sha256 of its store adds, at
    one shard."""
    at_shards(monkeypatch, 1)
    add = _ClassStore.add
    h = hashlib.sha256()

    def hashed(self, masks, raw):
        h.update(repr(masks).encode())
        return add(self, masks, raw)

    monkeypatch.setattr(_ClassStore, "add", hashed)
    return list(gen_regular(n, r)), h.hexdigest()


@pytest.mark.parametrize("n,r", [(12, 3), (10, 4)],
                         ids=["cubic-12", "quartic-10"])
def test_store_add_sequence_is_pinned(monkeypatch, n, r):
    # A cut may drop only leaves that the root-key filter would drop, so a
    # faster search keeps this sequence; a change to the search order or
    # to the leaves that pass moves it.
    _, digest = hashed_run(monkeypatch, n, r)
    assert digest == STORE_ADD_DIGESTS[n, r]


@pytest.mark.parametrize("n,r", [(12, 3), (10, 4)],
                         ids=["cubic-12", "quartic-10"])
def test_filter_leaf_sequence_is_pinned(monkeypatch, n, r):
    # A cut in the search may remove only branches that hold no leaf, so
    # every leaf still reaches the filter, in the same order.
    at_shards(monkeypatch, 1)
    leaf_keys = enumeration._leaf_keys
    h = hashlib.sha256()

    def hashed(leaves):
        for masks in leaves:
            h.update(repr(masks).encode())
        return leaf_keys(leaves)

    monkeypatch.setattr(enumeration, "_leaf_keys", hashed)
    list(gen_regular(n, r))
    assert h.hexdigest() == FILTER_DIGESTS[n, r]


def test_filter_drops_a_labelling_whose_vertex_1_is_not_minimal():
    # Keep vertex 0 (minimal) and swap vertex 1 with a neighbour of vertex
    # 0 whose key is larger than that of another neighbour.  The filter
    # drops the relabelling; the store, which takes any labelling, still
    # accepts it as a new class.
    g = next(g for g in gen_regular(10, 3)
             if len({vertex_key(g, y) for y in g.adj[0]}) > 1)
    keys = [vertex_key(g, v) for v in range(10)]
    top = max(g.adj[0], key=keys.__getitem__)
    perm = list(range(10))
    perm[1], perm[top] = top, 1
    relabeled = relabel(g, perm)
    assert list(_leaf_keys([masks_of(g)])) == [key_rows(g)]
    assert list(_leaf_keys([masks_of(relabeled)])) == [None]
    store = _ClassStore(10)
    assert store_add(store, relabeled)
    assert not store_add(store, g)


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("n,r", [(12, 3), (10, 4)],
                         ids=["cubic-12", "quartic-10"])
def test_store_add_sequence_holds_at_any_batch_size(monkeypatch, n, r,
                                                    batch):
    # The leaves are filtered in batches, and a flush adds the survivors in
    # leaf order, so where the batches end cannot move the sequence.
    # Cubic n=12 has 437 leaves and quartic n=10 1,215: neither splits
    # evenly into batches of 7 or of the default 64, which
    # test_store_add_sequence_is_pinned runs.
    monkeypatch.setattr(enumeration, "_LEAF_BATCH", batch)
    _, digest = hashed_run(monkeypatch, n, r)
    assert digest == STORE_ADD_DIGESTS[n, r]


def labellings(g, rng):
    """g relabelled at random, and relabelled with a minimal-key vertex 0
    and a random neighbour of it as vertex 1 (when it has one)."""
    n = g.n
    perm = list(range(n))
    rng.shuffle(perm)
    yield relabel(g, perm)
    keys = [vertex_key(g, v) for v in range(n)]
    x = rng.choice([v for v in range(n) if keys[v] == min(keys)])
    rest = [v for v in range(n) if v != x]
    rng.shuffle(rest)
    if g.adj[x]:
        y = rng.choice(g.adj[x])
        rest.remove(y)
        rest.insert(0, y)
    order = [x] + rest
    yield relabel(g, [order.index(v) for v in range(n)])


def hamiltonian_cycles(vertices, count, rng):
    """Edges of count edge-disjoint random Hamiltonian cycles on vertices:
    a 2 * count-regular graph, connected and seldom symmetric."""
    while True:
        edges = set()
        for _ in range(count):
            order = rng.sample(vertices, len(vertices))
            edges |= {frozenset(e) for e in zip(order, order[1:] + order[:1])}
        if len(edges) == count * len(vertices):
            return [tuple(e) for e in edges]


def random_graphs(n, rng):
    """G(n, p) graphs (irregular, disconnected at low p), unions of random
    Hamiltonian cycles (regular, connected) and two disjoint cycles of
    different lengths (regular, disconnected)."""
    graphs = [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < p]) for p in (0.05, 0.2, 0.6)]
    for count in (1, 2):
        if n >= 4 * count + 1:
            graphs.append(Graph(n, hamiltonian_cycles(range(n), count, rng)))
    if n >= 7:
        a = rng.randrange(3, (n + 1) // 2)
        graphs.append(Graph(n, hamiltonian_cycles(range(a), 1, rng)
                            + hamiltonian_cycles(range(a, n), 1, rng)))
    return graphs


def test_leaf_keys_match_the_set_oracle_and_the_filter_rules():
    # One batch per n: its leaves differ in BFS depth, regularity and
    # connectivity.  The verdict restates the two rules on keys computed
    # here: no key below vertex 0's, and no neighbour of a vertex with
    # vertex 0's key below vertex 1's.
    rng = random.Random(24)
    seen = set()
    for n in (1, 2, 3, 4, 5, 7, 9, 12, 16, 23, 31, 40, 52, 63, 64):
        batch = [h for g in random_graphs(n, rng) for h in labellings(g, rng)]
        got = list(_leaf_keys([masks_of(h) for h in batch]))
        assert len(got) == len(batch)
        for h, raw in zip(batch, got):
            keys = [vertex_key(h, v) for v in range(n)]
            passes = (all(key >= keys[0] for key in keys)
                      and all(keys[y] >= keys[1] for x in range(n)
                              if keys[x] == keys[0] for y in h.adj[x]))
            assert raw == (key_rows(h) if passes else None), n
            degrees = {len(a) for a in h.adj}
            seen.add((len(degrees) == 1, is_connected(h), passes))
    assert len(seen) == 8


def passing_labelling(g, rng):
    """g relabelled at random among the labellings that pass the leaf
    filter: vertex 0 of minimal key, next to a vertex 1 of minimal key
    among the neighbours of all minimal-key vertices."""
    keys = [vertex_key(g, v) for v in range(g.n)]
    low = [x for x in range(g.n) if keys[x] == min(keys)]
    k1 = min(keys[y] for x in low for y in g.adj[x])
    x, y = rng.choice([(x, y) for x in low for y in g.adj[x]
                       if keys[y] == k1])
    rest = [v for v in range(g.n) if v not in (x, y)]
    rng.shuffle(rest)
    order = [x, y] + rest
    return relabel(g, [order.index(v) for v in range(g.n)])


def test_walk_columns_are_a_relabelling_invariant():
    rook, shrikhande = rook_and_shrikhande()
    graphs = [prism(), k33(), petersen(), rook, shrikhande]
    graphs += [g for n in (4, 6, 8, 10, 12) for g in gen_regular(n, 3)]
    assert len(graphs) == 117
    rng = random.Random(17)
    for n in sorted({g.n for g in graphs}):
        same_n = [g for g in graphs if g.n == n]
        batch = [passing_labelling(g, rng) for g in same_n for _ in range(3)]
        got = list(_leaf_keys([masks_of(h) for h in batch]))
        for i, (h, raw) in enumerate(zip(batch, got)):
            assert raw == key_rows(h)
            assert sorted(walk_columns(raw, n)) == \
                walk_signature(same_n[i // 3])
    # triangles split the prism from K_{3,3}; the rook's graph and the
    # Shrikhande graph are cospectral and walk-regular, so only the search
    # splits them
    assert walk_signature(prism()) != walk_signature(k33())
    assert walk_signature(rook) == walk_signature(shrikhande)


def test_walk_columns_are_exact_on_k64():
    # the largest degree a leaf's masks allow: every walk column is
    # (63^k + 63(-1)^k) / 64, and the length-8 count passes 2^32
    [raw] = _leaf_keys([masks_of(complete(64))])
    per_vertex = tuple((63 ** k + 63 * (-1) ** k) // 64 for k in range(3, 9))
    assert walk_columns(raw, 64) == [per_vertex] * 64
    assert per_vertex[-1] > 2 ** 32


@pytest.mark.parametrize("n,r,classes", [(12, 3, 85), (10, 4, 59)],
                         ids=["cubic-12", "quartic-10"])
def test_store_without_the_walk_columns(monkeypatch, n, r, classes):
    # Rows cut to the filter's keys share buckets between classes and let
    # a vertex map to any with its key: the same leaves reach the store,
    # and the search alone keeps the classes apart.
    add = _ClassStore.add

    def cut(self, masks, raw):
        width = len(raw) // n
        return add(self, masks, b"".join(raw[i:i + 2 * n] for i in
                                         range(0, len(raw), width)))

    monkeypatch.setattr(_ClassStore, "add", cut)
    graphs, digest = hashed_run(monkeypatch, n, r)
    assert len(graphs) == classes
    assert digest == STORE_ADD_DIGESTS[n, r]
    # pairwise non-isomorphic: invariants computed here differ on each pair
    invariants = {repr((sorted(vertex_key(g, v) for v in range(n)),
                        walk_signature(g))) for g in graphs}
    assert len(invariants) == classes


def test_store_rejects_relabellings_in_mixed_buckets():
    # On the filter's keys alone, cubic n=12 has 10 buckets with two to
    # four classes.  The walk columns split all of them, so a relabelling
    # lands in its own class's bucket; the rook's graph and the Shrikhande
    # graph still share one (test_isomorphism_test_separates_same_bucket_pair).
    graphs = list(gen_regular(12, 3))
    store = _ClassStore(12)
    assert all(store_add(store, g) for g in graphs)
    rng = random.Random(12)
    for g in graphs:
        for _ in range(3):
            perm = list(range(12))
            rng.shuffle(perm)
            assert not store_add(store, relabel(g, perm))
    assert sum(map(len, store.buckets.values())) == 85
    assert len(store.buckets) == 85  # no mixed bucket


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


def test_gen_regular_frees_its_store_before_the_first_class(monkeypatch):
    # classify_table runs a report on each class while the generator is
    # suspended, so the store's buckets must not stay reachable from it.
    # At two shards this process makes two stores, shard 0's and the one
    # the shards' leaves are merged into.
    stores = []

    class Store(_ClassStore):
        def __init__(self, n):
            super().__init__(n)
            stores.append(weakref.ref(self))

    monkeypatch.setattr(enumeration, "_ClassStore", Store)
    for shards in (1, 2):
        at_shards(monkeypatch, shards)
        stores.clear()
        graphs = gen_regular(10, 3)
        next(graphs)
        assert len(stores) == shards
        assert all(store() is None for store in stores)


# rows whose classes and order must not depend on the shard count; the
# r = 2 rows and the complete graphs have a single subtree, so some shards
# own none
SHARD_ROWS = ([(n, 3) for n in range(4, 15, 2)]
              + [(n, 4) for n in range(5, 12)]
              + [(n, 5) for n in (6, 8, 10)]
              + [(n, 2) for n in range(3, 13)] + [(1, 0), (2, 1)])


def test_classes_and_their_order_do_not_depend_on_the_shard_count(
        monkeypatch):
    # each class's first passing leaf in the search is also the first of
    # its class in its own shard, so the merge meets it before any other
    # leaf of its class and keeps it as the representative
    digests = {}
    for shards in (1, 2, 3):
        at_shards(monkeypatch, shards)
        for n, r in SHARD_ROWS:
            h = hashlib.sha256()
            for g in gen_regular(n, r):
                h.update(repr(g.adj).encode())
            digests.setdefault((n, r), set()).add(h.hexdigest())
    assert [row for row, seen in digests.items() if len(seen) > 1] == []


@pytest.mark.parametrize("fault,message", [
    ("raises", "exited with code 1"),
    ("truncated", "census shard 1 sent .* bytes that marshal cannot read"),
])
def test_a_failing_shard_raises_and_leaves_no_child(monkeypatch, fault,
                                                    message):
    # the fault strikes only in the forked children: the parent must raise
    # at the first, and must have reaped both by then
    at_shards(monkeypatch, 3)
    parent = os.getpid()
    leaf_keys, dump = enumeration._leaf_keys, marshal.dump

    def failing_leaf_keys(leaves):
        if os.getpid() != parent:
            raise MemoryError("no memory left in the child")
        return leaf_keys(leaves)

    def truncated_dump(value, file):
        if os.getpid() == parent:
            return dump(value, file)
        file.write(marshal.dumps(value)[:-1])

    if fault == "raises":
        monkeypatch.setattr(enumeration, "_leaf_keys", failing_leaf_keys)
    else:
        monkeypatch.setattr(marshal, "dump", truncated_dump)
    with pytest.raises(RuntimeError, match=message):
        list(gen_regular(12, 3))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_closes_its_pipe_and_leaves_no_child(monkeypatch):
    # the second of two forks fails: the first child must be reaped, and
    # both pipes closed at both ends
    at_shards(monkeypatch, 3)
    fds = []
    forks = []
    pipe, fork = os.pipe, os.fork

    def counted_pipe():
        ends = pipe()
        fds.extend(ends)
        return ends

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError("no process left")
        return fork()

    monkeypatch.setattr(os, "pipe", counted_pipe)
    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(BlockingIOError):
        list(gen_regular(12, 3))
    assert len(fds) == 4
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.environ.get("SOLTES_EXTENDED"),
                    reason="cubic n=18 census; set SOLTES_EXTENDED=1")
def test_cubic_18_count():
    # OEIS A002851, two rows past the cubic scale cap of classify_table
    assert sum(1 for _ in gen_regular(18, 3)) == 41301


def test_r0_has_one_connected_graph():
    # n isolated vertices are connected only for n = 1
    assert [g.n for g in gen_regular(1, 0)] == [1]
    assert list(gen_regular(3, 0)) == []


def test_gen_regular_argument_errors():
    with pytest.raises(ValueError):
        list(gen_regular(5, 3))  # odd n*r
    with pytest.raises(ValueError):
        list(gen_regular(3, 3))  # n must exceed r
    with pytest.raises(ValueError):
        list(gen_regular(4, -2))  # negative degree
    with pytest.raises(ValueError):
        list(gen_regular(65, 2))  # a leaf's masks must fit in uint64


def test_cycle_on_64_vertices_fills_the_mask_width():
    # vertex 63 sets the top bit of a uint64 mask
    [g] = gen_regular(64, 2)
    check_representative(g, 2)


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
    assert not same_class(k33(), prism())


def test_isomorphism_test_separates_same_bucket_pair():
    # The 4x4 rook's graph and the Shrikhande graph share a bucket; the
    # neighbourhood of a vertex is two triangles in the first and a 6-cycle
    # in the second, so only the first has a K4.
    rook, shrikhande = rook_and_shrikhande()

    def has_k4(g):
        return any(set(g.adj[u]) & set(g.adj[v]) & set(g.adj[w])
                   for u, v, w in itertools.combinations(range(g.n), 3)
                   if v in g.adj[u] and w in g.adj[u] and w in g.adj[v])

    assert has_k4(rook) and not has_k4(shrikhande)
    # Both are vertex-transitive: the translations of Z4 x Z4 are
    # automorphisms of each, so the search tries every start image.
    for g in (rook, shrikhande):
        for a, b in itertools.product(range(4), repeat=2):
            shift = [4 * ((v // 4 + a) % 4) + (v + b) % 4 for v in range(16)]
            assert relabel(g, shift) == g
    store = _ClassStore(16)
    for g in (rook, shrikhande):
        assert store_add(store, g)
    assert len(store.buckets) == 1
    rng = random.Random(16)
    for g in (rook, shrikhande):
        for _ in range(3):
            perm = list(range(16))
            rng.shuffle(perm)
            assert not store_add(store, relabel(g, perm))
    [bucket] = store.buckets.values()
    assert len(bucket) == 2


def test_classify_small_rows_have_no_removable_vertices():
    for n in (4, 6, 8, 10):
        row = classify_table(n, 3)
        assert row.counts == {}
        assert row.n == n and row.r == 3


@pytest.mark.slow
def test_only_the_11_cycle_row_has_a_one_soltes_class_under_the_caps():
    # A class is 1-Soltes when every vertex is removable (k = n).  Over
    # these 32 rows the only one is C_11; the totals are the OEIS counts of
    # connected regular graphs (A002851 cubic, A006820 quartic, A006821
    # quintic, A006822 sextic, A014377 septic).
    totals = {(n, 2): 1 for n in range(3, 13)}
    totals.update({(4, 3): 1, (6, 3): 2, (8, 3): 5, (10, 3): 19,
                   (12, 3): 85, (14, 3): 509,
                   (5, 4): 1, (6, 4): 1, (7, 4): 2, (8, 4): 6, (9, 4): 16,
                   (10, 4): 59, (11, 4): 265,
                   (6, 5): 1, (8, 5): 3, (10, 5): 60,
                   (7, 6): 1, (8, 6): 1, (9, 6): 4, (10, 6): 21,
                   (8, 7): 1, (10, 7): 5})
    assert len(totals) == 32
    one_soltes = []
    for (n, r), total in totals.items():
        row = classify_table(n, r)
        assert row.total == total, (n, r)
        if n in row.counts:
            one_soltes.append((n, r))
    assert one_soltes == [(11, 2)]
    assert classify_table(11, 2).counts == {11: 1}


@pytest.mark.parametrize("n,r", [(10, 3), (8, 4), (9, 4)])
def test_census_row_does_not_depend_on_the_batch_size(monkeypatch, n, r):
    # classify_table sweeps as many classes at once as the word budget
    # fits: one per batch, five per batch (a remainder on each of these
    # rows) and the default all give the row of one report per class
    graphs = list(gen_regular(n, r))
    counts = {}
    for g in graphs:
        k = len(soltes_report(g).soltes_set)
        if k:
            counts[k] = counts.get(k, 0) + 1
    want = TableRow(n, r, len(graphs), counts)
    sweep = soltes.core._packed_pair_sums
    sizes = []

    def recording(graphs, removed, **kwargs):
        sizes.append(len(graphs))
        return sweep(graphs, removed, **kwargs)

    monkeypatch.setattr(soltes.core, "_packed_pair_sums", recording)
    # the words of one class's n + 1 slices, one word per row at n <= 64
    per_class = (n + 1) ** 2
    for budget, batch in ((per_class, 1), (5 * per_class, 5),
                          (soltes.core._SWEEP_WORDS, len(graphs))):
        monkeypatch.setattr(soltes.core, "_SWEEP_WORDS", budget)
        sizes.clear()
        assert classify_table(n, r) == want, budget
        full, last = divmod(len(graphs), batch)
        assert sizes == [batch] * full + [last] * bool(last), budget


@pytest.mark.slow
@pytest.mark.parametrize("n,r,total", [(11, 6, 266), (12, 9, 9)])
def test_rows_served_at_the_raised_caps(monkeypatch, n, r, total):
    # (11, 6) has the OEIS A006821 count, and no class of either row has a
    # removable vertex, by networkx on every deletion as well
    nx = pytest.importorskip("networkx")
    seen = []
    real = enumeration.gen_regular

    def kept(n, r):
        for g in real(n, r):
            seen.append(g)
            yield g

    monkeypatch.setattr(enumeration, "gen_regular", kept)
    assert classify_table(n, r) == TableRow(n, r, total, {})
    assert len(seen) == total
    for g in seen:
        h = nx.Graph(list(g.edges()))
        w = nx.wiener_index(h)
        assert all(nx.wiener_index(h.subgraph(set(h) - {v})) != w
                   for v in h)
    if r == 9:
        # the complements are the 2-regular graphs on 12 vertices, one per
        # partition of 12 into cycle lengths of at least 3
        cycles = sorted(sorted(map(len, nx.connected_components(
            nx.complement(nx.Graph(list(g.edges())))))) for g in seen)
        assert cycles == [[3, 3, 3, 3], [3, 3, 6], [3, 4, 5], [3, 9],
                          [4, 4, 4], [4, 8], [5, 7], [6, 6], [12]]


def test_classify_scale_cap():
    with pytest.raises(ValueError):
        classify_table(18, 3)
    with pytest.raises(ValueError):
        classify_table(14, 4)


def test_table_row_consistency_guard():
    row = TableRow(14, 3, 509, {1: 4, 2: 3})
    assert row == TableRow(14, 3, 509, {1: 4, 2: 3})
    assert row != TableRow(14, 3, 509, {1: 4})
    counts = {1: 4}
    assert TableRow(14, 3, 509, counts).counts is not counts
    with pytest.raises(TypeError):
        hash(row)
    with pytest.raises(ValueError):
        TableRow(4, 3, 1, {1: 2})


def test_complete_graph_is_generated(same_class):
    graphs = list(gen_regular(6, 5))
    assert same_class(graphs[0], complete(6))
