"""Distance-invariant checks against independent brute-force oracles."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import soltes.core
from soltes.cayley import cayley_graph, group_closure, load_catalog
from soltes.core import (ACYCLIC, INFINITE, Graph, delete_vertex,
                         is_biconnected, is_connected, profile, soltes_report,
                         soltes_reports, wiener, _bfs_raw, _packed_pair_sums,
                         _wieners)
from soltes.enumeration import gen_regular
from soltes.transforms import line_graph, truncate


def floyd_warshall(n, edges):
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def bfs_distance_matrix(g):
    """All-pairs distances, one plain BFS per source, -1 across components."""
    return [_bfs_raw(g.adj, g.n, src) for src in range(g.n)]


def test_graph_construction_basics():
    g = Graph(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
    assert g.m == 3
    assert g.adj == ((1,), (0, 2), (1, 3), (2,))
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_sentinels_refuse_arithmetic():
    with pytest.raises(TypeError):
        INFINITE + 1
    with pytest.raises(TypeError):
        1 + INFINITE
    with pytest.raises(TypeError):
        INFINITE < 3
    assert INFINITE != ACYCLIC
    assert repr(ACYCLIC) == "ACYCLIC"


def test_wiener_and_transmission_exhaustive_small():
    # every graph on up to 5 vertices, compared against Floyd-Warshall
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            d = floyd_warshall(n, edges)
            disconnected = any(d[i][j] == float("inf")
                               for i in range(n) for j in range(n))
            if disconnected:
                assert wiener(g) is INFINITE
            else:
                assert wiener(g) == sum(
                    int(d[i][j]) for i in range(n) for j in range(i + 1, n))
                for v in range(n):
                    assert sum(_bfs_raw(g.adj, n, v)) == sum(
                        int(x) for x in d[v])


def test_bfs_against_floyd_warshall_random():
    rng = random.Random(20260815)
    for _ in range(60):
        n = rng.randrange(6, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        d = floyd_warshall(n, list(g.edges()))
        for src in range(n):
            dv = _bfs_raw(g.adj, n, src)
            for v in range(n):
                if d[src][v] == float("inf"):
                    assert dv[v] == -1
                else:
                    assert dv[v] == int(d[src][v])


def test_wiener_cycles_closed_form():
    for n in range(3, 40):
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        want = n ** 3 // 8 if n % 2 == 0 else n * (n * n - 1) // 8
        assert wiener(g) == want


def test_double_wiener_is_transmission_sum():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        g = random_graph(rng, rng.randrange(5, 10), 0.5)
        if not is_connected(g):
            continue
        checked += 1
        assert 2 * wiener(g) == sum(map(sum, bfs_distance_matrix(g)))


def test_numpy_route_matches_pure_python():
    # same graphs pushed through both implementations of wiener
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randrange(64, 90)
        g = random_graph(rng, n, 0.08)
        rows = bfs_distance_matrix(g)
        fast = wiener(g)
        if min(map(min, rows)) >= 0:
            assert fast == sum(map(sum, rows)) // 2
        else:
            assert fast is INFINITE


def test_packed_sweep_against_distance_matrix():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randrange(64, 80)
        g = random_graph(rng, n, 0.07)
        dm = bfs_distance_matrix(g)
        [[(total, far, connected)]] = _packed_pair_sums([g], [None])
        assert connected == all(d >= 0 for row in dm for d in row)
        if connected:
            assert total == sum(map(sum, dm))
            assert far == max(map(max, dm))


def test_kernel_crossover_matches_bfs_oracle():
    # both sides of n = 16 (once the BFS/sweep crossover) and of the 64-bit
    # word boundary
    rng = random.Random(1516)
    for n in (15, 16, 17, 63, 64):
        for p in (1.5 / n, 3.0 / n, 0.5):
            g = random_graph(rng, n, p)
            dm = bfs_distance_matrix(g)
            if all(d >= 0 for row in dm for d in row):
                assert wiener(g) == sum(map(sum, dm)) // 2
                assert profile(g)["diameter"] == max(map(max, dm))
            else:
                assert wiener(g) is INFINITE
                assert profile(g)["diameter"] is INFINITE
        ring = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        dm = bfs_distance_matrix(ring)
        assert wiener(ring) == sum(map(sum, dm)) // 2
        assert profile(ring)["diameter"] == n // 2


def test_delete_vertex_relabels_in_order():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    h = delete_vertex(g, 2)
    assert h.n == 4
    assert set(h.edges()) == {(0, 1), (2, 3), (0, 3)}
    with pytest.raises(ValueError):
        delete_vertex(g, 5)


def two_blocks_at_a_cut_vertex(rng, a, b):
    """Chorded cycles on a and b vertices, both joined only through a hub."""
    n = a + b + 1
    edges = [(0, a + b), (a, a + b)]
    for lo, size in ((0, a), (a, b)):
        edges += [(lo + i, lo + (i + 1) % size) for i in range(size)]
        edges += [(lo + i, lo + j) for i in range(size)
                  for j in range(i + 2, size) if rng.random() < 0.3]
    return Graph(n, edges)


def test_masked_deletion_matches_rebuilt_graph():
    rng = random.Random(2024)
    graphs = [random_graph(rng, n, p)
              for n in (2, 3, 15, 16, 17, 63, 64, 65, 130)
              for p in (0.05, 0.15, 0.4)]
    graphs += [random_graph(rng, n, 0.7) for n in (16, 17, 40, 90)]
    # orders 8, 16, 17, 71: G - v on both sides of n = 16
    cut = [two_blocks_at_a_cut_vertex(rng, a, b)
           for a, b in ((3, 4), (7, 8), (8, 8), (40, 30))]
    finite = infinite = 0
    for g in graphs + cut:
        for v in range(g.n):
            want = wiener(delete_vertex(g, v))
            assert _wieners(g, [v])[0] == want, (g, v)
            if want is INFINITE:
                infinite += 1
            else:
                finite += 1
    for g in cut:
        assert wiener(g) is not INFINITE
        assert _wieners(g, [g.n - 1])[0] is INFINITE
    assert finite > 1000 and infinite > 100


def test_batched_sweep_matches_rebuilt_graphs(monkeypatch):
    # Each entry of a batch against a batch of one on the rebuilt G - v (or
    # G) and against wiener(delete_vertex(g, v)).  The word budget is cut to
    # k slices per chunk, so every batch spans several chunks with a ragged
    # last one.
    rng = random.Random(808)
    graphs = [Graph(1), Graph(2), Graph(2, [(0, 1)])]
    graphs += [random_graph(rng, n, p) for n in (17, 63, 64, 65, 130)
               for p in (0.05, 0.2)]
    graphs += [random_graph(rng, n, 0.7) for n in (17, 65)]
    graphs += [two_blocks_at_a_cut_vertex(rng, a, b)
               for a, b in ((3, 4), (8, 8), (30, 33))]
    mixed_chunks = 0
    for g in graphs:
        words = (g.n + 63) // 64
        removed = [None, *range(g.n)]
        extra = [rng.choice(removed) for _ in range(g.n // 2 + 3)]
        removed += extra + [None, *extra[:3]]
        want = {v: _packed_pair_sums([delete_vertex(g, v)], [None])[0][0]
                for v in range(g.n)}
        want[None] = _packed_pair_sums([g], [None])[0][0]
        want_w = [wiener(g) if v is None else wiener(delete_vertex(g, v))
                 for v in removed]
        for k in (1, 3, 7):
            monkeypatch.setattr(soltes.core, "_SWEEP_WORDS",
                                k * (g.n + 1) * words)
            [got] = _packed_pair_sums([g], removed)
            assert got == [want[v] for v in removed], (g, k)
            assert _wieners(g, removed) == want_w, (g, k)
            for lo in range(0, len(got), k):
                flags = {c for _, _, c in got[lo:lo + k]}
                mixed_chunks += flags == {True, False}
    assert mixed_chunks > 10


def test_batched_sweep_small_and_edge_orders():
    assert _packed_pair_sums([Graph(0)], [None]) == [[(0, 0, True)]]
    assert _packed_pair_sums([Graph(1)], [None, 0, None]) == [
        [(0, 0, True)] * 3]
    k2 = Graph(2, [(0, 1)])
    assert _wieners(k2, [0, None, 1]) == [0, 1, 0]
    assert _wieners(Graph(2), [None, 1]) == [INFINITE, 0]
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert _wieners(p3, [1, 0, None]) == [INFINITE, 1, 4]
    # the sweep's int64 totals on a path, whose sum is the largest for its n
    n = 700
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    assert _wieners(path, [None, n - 1, 0, n // 2]) == [
        (n - 1) * n * (n + 1) // 6, (n - 2) * (n - 1) * n // 6,
        (n - 2) * (n - 1) * n // 6, INFINITE]


def oracle_sweep(g, v):
    """(distance sum over reachable ordered pairs, largest finite
    eccentricity, connected) of g, or of g - v for a vertex v, by BFS."""
    h = g if v is None else delete_vertex(g, v)
    finite = [d for row in bfs_distance_matrix(h) for d in row if d >= 0]
    return (sum(finite), max(finite, default=0), len(finite) == h.n ** 2)


def test_sweep_fields_of_disconnected_slices(monkeypatch):
    # Disconnected graphs, and deletions at cut vertices, next to connected
    # slices in the same chunks.  The sum counts only the reached pairs, and
    # the level is the largest finite eccentricity.
    rng = random.Random(2323)
    graphs = [random_graph(rng, n, p) for n in (5, 16, 17, 40, 64, 65, 90)
              for p in (0.02, 0.05, 0.1)]
    graphs += [two_blocks_at_a_cut_vertex(rng, a, b)
               for a, b in ((3, 4), (8, 8), (30, 33))]
    graphs += [Graph(4), Graph(2, [(0, 1)])]
    disconnected = 0
    for g in graphs:
        words = (g.n + 63) // 64
        removed = [None, *range(g.n), None]
        want = [oracle_sweep(g, v) for v in removed]
        disconnected += sum(not c for _, _, c in want)
        for k in (1, 3, 7):
            monkeypatch.setattr(soltes.core, "_SWEEP_WORDS",
                                k * (g.n + 1) * words)
            assert _packed_pair_sums([g], removed) == [want], (g, k)
            [closed] = _packed_pair_sums([g], removed, closures=True)
            assert [c[:3] for c in closed] == want, (g, k)
    assert disconnected > 300


@pytest.mark.parametrize("n", [704, 705, 706, 1024])
def test_sweep_closed_forms_on_long_cycles(n):
    # hundreds of levels with one slice per chunk: from n = 705 on, not
    # even one (n + 1) x n slice fits the word budget
    ring = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    path_w = (n - 2) * (n - 1) * n // 6
    assert _packed_pair_sums([ring], [None, 0, n // 2]) == [[
        (2 * (n * (n * n // 4) // 2), n // 2, True),
        (2 * path_w, n - 2, True), (2 * path_w, n - 2, True)]]


def test_sweep_of_many_graphs_matches_one_graph_sweeps(monkeypatch):
    # A sweep over several graphs of one order, the rows of their disjoint
    # union, against one sweep per graph; with cut vertices and sparse
    # graphs, some slices of a chunk are disconnected next to connected
    # ones.  The word budget runs from one slice per chunk, through one
    # that splits the entries across two chunks, to the default.
    default = soltes.core._SWEEP_WORDS
    rng = random.Random(3030)
    disconnected = 0
    for n in (5, 63, 64, 65, 70):
        words = (n + 63) // 64
        for size in (1, 2, 3, 4):
            graphs = [random_graph(rng, n, rng.choice((0.04, 0.1, 0.3)))
                      for _ in range(size)]
            if n == 70:
                graphs[-1] = two_blocks_at_a_cut_vertex(rng, 30, 39)
            removed = [None, *rng.sample(range(n), min(n, 9)), None]
            half = (len(removed) + 1) // 2
            for budget in (1, half * size * (n + 1) * words, default):
                monkeypatch.setattr(soltes.core, "_SWEEP_WORDS", budget)
                for closures in (False, True):
                    want = [_packed_pair_sums([g], removed, closures)[0]
                            for g in graphs]
                    got = _packed_pair_sums(graphs, removed, closures)
                    assert got == want, (n, size, budget, closures)
                    disconnected += sum(not c[2] for w in want for c in w)
    assert disconnected > 100
    with pytest.raises(ValueError):
        _packed_pair_sums([Graph(5), Graph(6)], [None])


def report_peak(g, automorphisms=None):
    tracemalloc.start()
    try:
        rep = soltes_report(g, automorphisms=automorphisms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


def test_soltes_report_memory_is_bounded_on_dense_graph():
    # all 601 sweeps of K_600 in one call, one slice per chunk
    n = 600
    k = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    rep, peak = report_peak(k)
    assert rep.wiener == n * (n - 1) // 2
    assert rep.per_vertex == ((n - 1) * (n - 2) // 2,) * n
    assert peak < 8 * 2 ** 20


def test_orbit_report_memory_is_bounded_on_dense_graph():
    # Checking the rotation against a set of K_600's edges, one tuple per
    # edge, peaked at about 21 MB.
    n = 600
    k = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    rotation = [(v + 1) % n for v in range(n)]
    rep, peak = report_peak(k, [rotation])
    assert rep.per_vertex == ((n - 1) * (n - 2) // 2,) * n
    assert peak < 8 * 2 ** 20


def test_soltes_report_memory_is_bounded_by_chunks():
    # 201 sweeps of C_200(1, 2) in one call.  As one chunk they would hold
    # about 5 MB of frontier, unreached and gather arrays; chunks of 10
    # slices hold about 260 KB.
    n = 200
    g = Graph(n, [(i, (i + s) % n) for i in range(n) for s in (1, 2)])
    rep, peak = report_peak(g)
    assert rep.per_vertex == (wiener(delete_vertex(g, 0)),) * n
    assert peak < 2 ** 20


def test_each_sweep_chunk_frees_its_arrays_before_the_next():
    # C_1152(1, 100) under its rotation: W(G) and one deletion, one slice
    # per chunk, each chunk array (n + 1) x 18 words.  A chunk holds four
    # of them; the second chunk's must replace the first's, not join them.
    n = 1152
    g = circulant(n, (1, 100))
    rotation = [(v + 1) % n for v in range(n)]
    rep, peak = report_peak(g, [rotation])
    assert rep.per_vertex == (wiener(delete_vertex(g, 0)),) * n
    assert peak < 6 * (n + 1) * 18 * 8


def test_sweep_memory_is_bounded_on_dense_graph():
    # Gathering every vertex's neighbour frontiers at once held
    # n x (n - 1) x ceil(n / 64) words, about 32 MB on K_600.
    n = 600
    k = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    tracemalloc.start()
    try:
        assert wiener(k) == n * (n - 1) // 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_deletion_never_shortens_distances():
    rng = random.Random(4242)
    checked = 0
    while checked < 20:
        g = random_graph(rng, 8, 0.5)
        if not is_connected(g):
            continue
        v = rng.randrange(g.n)
        h = delete_vertex(g, v)
        if not is_connected(h):
            continue
        checked += 1
        keep = [u for u in range(g.n) if u != v]
        for i, a in enumerate(keep):
            da = _bfs_raw(g.adj, g.n, a)
            ha = _bfs_raw(h.adj, h.n, i)
            for j, b in enumerate(keep):
                assert ha[j] >= da[b]


def test_soltes_report_known_graphs():
    c11 = Graph(11, [(i, (i + 1) % 11) for i in range(11)])
    rep = soltes_report(c11)
    assert rep.wiener == 165
    assert rep.soltes_set == tuple(range(11))
    assert rep.alpha == Fraction(1, 1)
    k7 = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    rep = soltes_report(k7)
    assert rep.soltes_set == ()
    assert rep.alpha == 0
    assert rep.n == 7
    with pytest.raises(ValueError):
        soltes_report(Graph(4, [(0, 1), (2, 3)]))


def count_deletions(monkeypatch):
    """Record every vertex the batched sweep deletes, in order."""
    calls = []
    real = soltes.core._packed_pair_sums

    def counted(graphs, removed):
        calls.extend(v for v in removed if v is not None)
        return real(graphs, removed)

    monkeypatch.setattr(soltes.core, "_packed_pair_sums", counted)
    return calls


def assert_same_report(a, b):
    assert a.wiener == b.wiener
    assert a.per_vertex == b.per_vertex
    assert a.soltes_set == b.soltes_set
    assert a.alpha == b.alpha


def test_orbit_report_cycle_under_rotation(monkeypatch):
    c11 = Graph(11, [(i, (i + 1) % 11) for i in range(11)])
    brute = soltes_report(c11)
    calls = count_deletions(monkeypatch)
    rotation = [(i + 1) % 11 for i in range(11)]
    assert_same_report(soltes_report(c11, automorphisms=[rotation]), brute)
    assert calls == [0]


def circulant(n, steps):
    return Graph(n, [(i, (i + s) % n) for i in range(n) for s in steps])



def test_report_batches_fill_one_sweep_chunk(monkeypatch):
    # soltes_reports sweeps as many graphs at once as fit all their n + 1
    # slices in one chunk: 36 on 14 vertices and 56 on 11 at the default
    # budget; each report is the one soltes_report gives
    sweep = soltes.core._packed_pair_sums
    sizes = []

    def recording(graphs, removed, **kwargs):
        sizes.append(len(graphs))
        return sweep(graphs, removed, **kwargs)

    cases = [(circulant(14, (1, 7)), [36, 4]),
             (circulant(11, (1, 2)), [56, 4])]
    wants = [soltes_report(g) for g, _ in cases]
    monkeypatch.setattr(soltes.core, "_packed_pair_sums", recording)
    for (g, batches), want in zip(cases, wants):
        sizes.clear()
        for rep in soltes_reports([g] * sum(batches)):
            assert_same_report(rep, want)
        assert sizes == batches
    with pytest.raises(ValueError):
        list(soltes_reports([circulant(5, (1,)), Graph(5, [(0, 1)])]))

@pytest.mark.slow
def test_c11_is_the_only_one_soltes_circulant_with_at_most_two_steps():
    # every connected C_n(S) with |S| <= 2, S in 1..n/2 and n = 5..60; the
    # rotation is an automorphism, so each report makes one deletion
    nx = pytest.importorskip("networkx")
    hits, misses = [], []
    for n in range(5, 61):
        rotation = [(v + 1) % n for v in range(n)]
        for k in (1, 2):
            for steps in itertools.combinations(range(1, n // 2 + 1), k):
                if math.gcd(n, *steps) != 1:
                    continue
                rep = soltes_report(circulant(n, steps), [rotation])
                (hits if rep.soltes_set else misses).append((n, steps, rep))
    assert len(hits) + len(misses) == 7767
    assert [(n, steps) for n, steps, _ in hits] == [
        (11, (s,)) for s in range(1, 6)]
    assert all(rep.soltes_set == tuple(range(11)) for _, _, rep in hits)
    sample = random.Random(11).sample(
        [miss for miss in misses if miss[0] <= 30], 50)
    for n, steps, rep in hits + sample:
        h = nx.empty_graph(n)
        h.add_edges_from(circulant(n, steps).edges())
        assert nx.wiener_index(h) == rep.wiener, (n, steps)
        h.remove_node(0)
        assert nx.wiener_index(h) == rep.per_vertex[0], (n, steps)


def test_orbit_report_identity_only_is_brute_force(monkeypatch):
    rng = random.Random(808)
    calls = count_deletions(monkeypatch)
    checked = 0
    while checked < 10:
        g = random_graph(rng, rng.randrange(5, 40), 0.3)
        if not is_connected(g):
            continue
        checked += 1
        brute = soltes_report(g)
        calls.clear()
        rep = soltes_report(g, automorphisms=[list(range(g.n))])
        assert_same_report(rep, brute)
        assert calls == list(range(g.n))


def test_orbit_report_rejects_bad_permutations():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    for perm in ([0, 0, 2, 3, 4],    # not injective
                 [0, 1, 2, 3],       # wrong length
                 [0, 1, 2, 3, 5],    # image out of range
                 [1, 0, 2, 3, 4]):   # bijection, but (1,2) -> (0,2)
        with pytest.raises(ValueError):
            soltes_report(c5, automorphisms=[perm])
    # a bad permutation after a good one is still caught
    with pytest.raises(ValueError):
        soltes_report(c5, automorphisms=[[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])


def test_is_biconnected_matches_deletion_definition():
    rng = random.Random(77)
    for _ in range(80):
        n = rng.randrange(3, 9)
        g = random_graph(rng, n, rng.uniform(0.3, 0.8))
        brute = is_connected(g) and all(
            is_connected(delete_vertex(g, v)) for v in range(n))
        assert is_biconnected(g) == brute
    assert not is_biconnected(Graph(2, [(0, 1)]))


def brute_girth(g):
    best = None
    verts = range(g.n)
    for k in range(3, g.n + 1):
        for combo in itertools.permutations(verts, k):
            if combo[0] != min(combo):
                continue
            if combo[1] > combo[-1]:
                continue
            edges = list(zip(combo, combo[1:] + combo[:1]))
            if all(v in g.adj[u] for u, v in edges):
                return k
    return best


def brute_bipartite(g):
    # some 2-colouring of the vertices, as a bit mask, splits every edge
    return any(all((mask >> u ^ mask >> v) & 1 for u, v in g.edges())
               for mask in range(2 ** g.n))


def test_profile_against_brute_force():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randrange(4, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        p = profile(g)
        want_girth = brute_girth(g)
        assert p["girth"] == (want_girth if want_girth else ACYCLIC)
        assert p["bipartite"] == brute_bipartite(g)
        if is_connected(g):
            assert p["diameter"] == max(map(max, bfs_distance_matrix(g)))
        else:
            assert p["diameter"] is INFINITE
        assert p["degrees"] == tuple(sorted(g.degree(v) for v in range(n)))


def test_profile_large_graph_uses_same_answers():
    n = 80
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    p = profile(g)
    assert p["girth"] == n
    assert p["diameter"] == n // 2
    assert p["bipartite"] == (n % 2 == 0)
    assert p["regular"] == 2


def assert_profile_matches_networkx(graphs):
    nx = pytest.importorskip("networkx")
    for g in graphs:
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        girth = nx.girth(h)
        p = profile(g)
        assert p["girth"] == (ACYCLIC if girth == float("inf") else girth), g
        assert p["bipartite"] == nx.is_bipartite(h), g


def test_profile_matches_networkx_at_the_edges():
    rng = random.Random(2024)
    cycles = {n: [(i, (i + 1) % n) for i in range(n)] for n in (3, 4, 5, 11)}
    # forests: every vertex after the first picks a parent or starts a tree
    forests = [Graph(n, [(v, rng.randrange(v)) for v in range(1, n)
                         if rng.random() < 0.8])
               for n in range(1, 40, 3)]
    assert all(profile(g)["girth"] is ACYCLIC for g in forests)
    # odd cycles close on their last level
    odd = [Graph(n, cycles[n]) for n in (3, 5, 11)]
    assert [profile(g)["girth"] for g in odd] == [3, 5, 11]
    # C_4 and then C_11: the only odd cycle is in the second component
    split = Graph(15, cycles[4] + [(u + 4, v + 4) for u, v in cycles[11]])
    assert profile(split) == {"girth": 4, "diameter": INFINITE,
                              "bipartite": False, "degrees": (2,) * 15,
                              "regular": 2}
    tiny = [Graph(0), Graph(1), Graph(2), Graph(2, [(0, 1)])]
    assert [profile(g)["diameter"] for g in tiny] == [0, 0, INFINITE, 1]
    assert_profile_matches_networkx(forests + odd + [split] + tiny)


@pytest.mark.slow
def test_profile_matches_networkx_on_census_classes():
    # every cubic and quartic class with n <= 12; quartic n = 12 alone is
    # 1,544 classes and most of the time
    assert_profile_matches_networkx(
        g for r, ns in ((3, range(4, 13, 2)), (4, range(5, 13)))
        for n in ns for g in gen_regular(n, r))


def test_profile_matches_networkx_on_the_catalog():
    # the 8 catalog Cayley graphs, their truncations and their line graphs
    graphs = []
    for entry in load_catalog():
        gens = entry.parsed_generators()
        g = cayley_graph(gens, group_closure(gens))
        graphs += [g, truncate(g), line_graph(g)]
    assert len(graphs) == 24
    assert_profile_matches_networkx(graphs)
