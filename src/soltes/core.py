"""Exact distance computations and invariants for simple undirected graphs.

Vertices are integers 0..n-1.  All distance sums are exact integers; a
disconnected graph has Wiener index INFINITE, a sentinel that supports
equality checks only (any arithmetic with it raises TypeError on purpose).

There is one all-pairs distance kernel, _packed_pair_sums: a bit-packed
simultaneous BFS that evaluates W(G) and any number of W(G - v) in one
batched sweep on g itself, so no G - v is ever built.  A BFS level costs
one gather per neighbour-table column, a mask, a popcount and an XOR, and
the old and new frontiers swap places; the pair sums, last levels and
connected flags are read off the per-level counts after the loop.  wiener,
profile and soltes_report all go through it, and profile reads the girth,
the diameter and bipartiteness off its one sweep.  The only single-source
routine is _bfs_raw, a plain BFS distance list with -1 for unreachable
vertices; it serves only is_connected and the builder's distance checks.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np


class _Sentinel:
    """Inert marker value. No ordering, no arithmetic, identity equality."""

    __slots__ = ("_label",)

    def __init__(self, label):
        self._label = label

    def __repr__(self):
        return self._label


INFINITE = _Sentinel("INFINITE")
ACYCLIC = _Sentinel("ACYCLIC")

# Words of 64 bits per sweep array: a chunk of _packed_pair_sums holds
# max(1, _SWEEP_WORDS // ((n + 1) * ceil(n / 64))) slices.  Four such arrays
# are live at once (the frontier, the new frontier it swaps with, a gather
# buffer and unreached), 256 KB in all; profile's closure mode adds a fifth
# (dup).  Larger chunks pay numpy's per-call overhead, a fixed number of
# calls per BFS level, fewer times; 2^11 words gave no gain over one sweep
# per deletion on the scan benchmark, 2^13 most of the gain at half the
# memory of 2^14.
_SWEEP_WORDS = 2 ** 13


class Graph:
    """Immutable simple undirected graph.

    adj[v] is a strictly increasing tuple of neighbours; duplicate edges in
    the input collapse, self-loops are rejected.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        lists = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            lists[u].append(v)
            lists[v].append(u)
        self.n = n
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in lists)
        self.m = len(seen)

    @classmethod
    def _from_adj(cls, adj):
        """Graph with adj taken as is, without the checks of __init__.

        adj must already be what __init__ builds: one strictly increasing
        tuple of neighbours per vertex, symmetric, without self-loops.
        """
        g = object.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g.m = sum(map(len, adj)) // 2
        return g

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v):
        return len(self.adj[v])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class SoltesReport:
    """Wiener data for a connected graph and the effect of each deletion.

    wiener is W(G); per_vertex[v] is W(G-v) (INFINITE when v is a cut
    vertex); soltes_set lists the vertices whose removal keeps W unchanged;
    alpha is the exact fraction |soltes_set| / n.
    """

    __slots__ = ("wiener", "per_vertex", "soltes_set", "alpha")

    def __init__(self, wiener, per_vertex, soltes_set, alpha):
        self.wiener = wiener
        self.per_vertex = tuple(per_vertex)
        self.soltes_set = tuple(soltes_set)
        self.alpha = alpha

    @property
    def n(self):
        return len(self.per_vertex)

    def __repr__(self):
        return (f"SoltesReport(wiener={self.wiener}, "
                f"soltes_set={self.soltes_set}, alpha={self.alpha})")


def _bfs_raw(adj, n, src):
    """Distance list with -1 for unreachable vertices."""
    dist = [-1] * n
    dist[src] = 0
    queue = deque((src,))
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def _neighbour_table(g):
    """(max(1, max degree), n + 1) index array: column v lists v's
    neighbours, padded with n, the index of the sweep's all-zero row;
    column n is all padding, so row n of every gather stays zero."""
    n = g.n
    width = max(1, max((len(a) for a in g.adj), default=0))
    table = np.full((width, n + 1), n, dtype=np.intp)
    for v, row in enumerate(g.adj):
        table[: len(row), v] = row
    return table


def _packed_pair_sums(g, removed, closures=False):
    """[(sum of d(x, y) over reached ordered pairs, last level, connected
    flag)], one per entry of removed: g - v for a vertex v, g itself for
    None.

    Simultaneous BFS from every vertex on bit-packed reach sets: level k
    adds, for every source, the neighbours of its level k-1 frontier.  Each
    level records only its count of fresh pairs per slice, so no distance
    matrix is ever materialized; after the loop, a slice's sum is the sum
    of k times its level-k count, its last level is the number of levels at
    which it grew, and it is connected when the counts add up to all its
    ordered pairs.  For a disconnected slice the sum covers the pairs that
    were reached, and the last level is its largest finite eccentricity.
    Neighbour frontiers are ORed in one table row at a time, so the working
    set stays four chunk-sized arrays whatever the degree (five with
    closures).

    The entries run in chunks, each a (slices, n + 1, words) frontier array
    of as many slices as _SWEEP_WORDS allows (at least one).  Every buffer
    has n + 1 rows; row n is the all-zero row the table's padding points
    at, and it stays zero in each gather, so the new frontier and the old
    one swap places instead of being copied.  All slices share nbrs, g's
    _neighbour_table.  A removed vertex v is masked through its slice's
    start state alone: v's identity bit is cleared, v's unreached row is
    zeroed and v's bit is cleared in every unreached row.  So v's frontier
    stays empty, no source ever reaches v, and the other vertices make the
    (n - 1)(n - 2) ordered pairs of g - v.  A chunk stops once all its pairs
    are reached, or at a level that reaches nothing new.

    With closures, each entry also has the girth (0 if acyclic) and a
    bipartite flag.  As the levels are synchronous over the sources, the
    girth is 2k + 1 or 2k + 2 at the first level k with an edge inside a
    frontier (odd: not bipartite) or a new vertex gathered from two
    frontier vertices (dup).  Such a chunk runs until a level reaches
    nothing, not only until every pair is reached, so that the last
    level's inner edges are seen.

    Totals are exact in int64: a sum is below n^3, and n^3 < 2^63 for every
    n whose (n + 1) x n bit slice fits in memory (n < 2^21).
    """
    n = g.n
    nbrs = _neighbour_table(g)
    words = (n + 63) // 64
    step = max(1, _SWEEP_WORDS // max(1, (n + 1) * words))
    idx = np.arange(n)
    bits = np.uint64(1) << (idx & 63).astype(np.uint64)
    out = []
    for lo in range(0, len(removed), step):
        chunk = removed[lo:lo + step]
        b = len(chunk)
        frontier = np.zeros((b, n + 1, words), dtype=np.uint64)
        frontier[:, idx, idx >> 6] = bits
        unreached = ~frontier
        unreached[:, n] = 0
        order = np.full(b, n, dtype=np.int64)
        hit = [s for s, v in enumerate(chunk) if v is not None]
        if hit:
            s = np.array(hit)
            v = np.array([chunk[i] for i in hit])
            frontier[s, v] = 0
            unreached[s, v] = 0
            unreached[s, :, v >> 6] &= ~bits[v][:, None]
            order[s] = n - 1
        pairs = order * (order - 1)
        left = int(pairs.sum())
        counts, odds, evens = [], [], []
        new = np.empty_like(frontier)
        tmp = np.empty_like(frontier)
        dup = np.zeros_like(frontier) if closures else None
        while left:
            # every index is in 0..n, and "clip" writes out directly where
            # the default "raise" goes through a buffered copy
            frontier.take(nbrs[0], axis=1, out=new, mode="clip")
            for column in nbrs[1:]:
                frontier.take(column, axis=1, out=tmp, mode="clip")
                if closures:
                    dup |= new & tmp
                new |= tmp
            if closures:
                odds.append((new & frontier).any(axis=(1, 2)))
                evens.append((dup & unreached).any(axis=(1, 2)))
                dup.fill(0)
            new &= unreached
            fresh = np.bitwise_count(new).sum(axis=(1, 2)).tolist()
            got = sum(fresh)
            if not got:
                break
            counts.append(fresh)
            # closures reads the last level's inner edges in the pass after
            # it, so it stops only at a pass that reaches nothing
            if not closures:
                left -= got
            unreached ^= new
            frontier, new = new, frontier
        counts = np.array(counts, dtype=np.int64).reshape(-1, b)
        ks = np.arange(1, len(counts) + 1)
        columns = [ks @ counts, (counts > 0).sum(axis=0),
                   counts.sum(axis=0) == pairs]
        if closures:
            odd = np.array(odds, dtype=bool).reshape(-1, b)
            cycle = odd | np.array(evens, dtype=bool).reshape(-1, b)
            # pass k closes a cycle of length 2k - odd, rising with k, so
            # the least is the girth; n + 1 marks no cycle
            closing = 2 * np.arange(1, len(odd) + 1)[:, None] - odd
            girth = np.where(cycle, closing, n + 1).min(axis=0, initial=n + 1)
            columns += [np.where(girth > n, 0, girth), ~odd.any(axis=0)]
        out.extend(zip(*(c.tolist() for c in columns)))
    return out


def _wieners(g, removed):
    """[W(g - v) for v in removed], W(g) for None; INFINITE if disconnected."""
    return [total // 2 if connected else INFINITE
            for total, _, connected in _packed_pair_sums(g, removed)]


def wiener(g: Graph):
    """Sum of distances over unordered vertex pairs; INFINITE if disconnected."""
    return _wieners(g, [None])[0]


def delete_vertex(g: Graph, v) -> Graph:
    """Remove v; remaining vertices are compacted preserving their order."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    edges = []
    for u, w in g.edges():
        if u == v or w == v:
            continue
        edges.append((u - (u > v), w - (w > v)))
    return Graph(g.n - 1, edges)


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    raw = _bfs_raw(g.adj, g.n, 0)
    return min(raw) >= 0


def _check_automorphism(g, perm):
    """Raise ValueError unless perm (an image list) is an automorphism of g."""
    if len(perm) != g.n or set(perm) != set(range(g.n)):
        raise ValueError(f"permutation is not a bijection on 0..{g.n - 1}")
    adj = g.adj
    image = perm.__getitem__
    if all(tuple(sorted(map(image, nbrs))) == adj[p]
           for nbrs, p in zip(adj, perm)):
        return
    # a bijection that is not an automorphism maps some edge to a non-edge
    for u, v in g.edges():
        a, b = perm[u], perm[v]
        if b not in adj[a]:
            raise ValueError(
                f"not an automorphism: edge ({u},{v}) maps to non-edge ({a},{b})")


def _find(parent, x):
    """Root of x's part in the union-find parent, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent, perm):
    """Join every vertex's part with its image's under perm (an image list).

    The smaller root stays, so every root is the smallest vertex of its
    part; joining with a group's generators leaves its orbits as the parts.
    """
    for v, w in enumerate(perm):
        rv, rw = _find(parent, v), _find(parent, w)
        if rv < rw:
            parent[rw] = rv
        elif rw < rv:
            parent[rv] = rw


def _wieners_by_orbit(g, automorphisms, vertices):
    """W(g) and [W(g - v) for v in vertices], one deletion per orbit.

    automorphisms are image lists already checked against g.  W(g - v) is
    constant on the orbits of the group they generate, so each orbit's
    smallest vertex is deleted and its value copied to the rest.
    """
    parent = list(range(g.n))
    for perm in automorphisms:
        _join(parent, perm)
    roots = [_find(parent, v) for v in vertices]
    reps = dict.fromkeys(roots)
    w, *values = _wieners(g, [None, *reps])
    per_orbit = dict(zip(reps, values))
    return w, [per_orbit[root] for root in roots]


def soltes_report(g: Graph, automorphisms=None) -> SoltesReport:
    """Per-vertex deletion analysis of a connected graph.

    W(G) and each W(G-v) come from one batched sweep on g itself
    (_packed_pair_sums), with v masked out; no G-v is built.  automorphisms
    is an optional list of vertex image lists, each an automorphism of g
    (checked; ValueError otherwise), and one deletion per orbit of the
    group they generate is evaluated.
    """
    automorphisms = list(automorphisms or ())
    for perm in automorphisms:
        _check_automorphism(g, perm)
    w, per_vertex = _wieners_by_orbit(g, automorphisms, range(g.n))
    if w is INFINITE:
        raise ValueError("soltes_report requires a connected graph")

    soltes_set = tuple(v for v in range(g.n) if per_vertex[v] == w)
    alpha = Fraction(len(soltes_set), g.n) if g.n else Fraction(0, 1)
    return SoltesReport(w, per_vertex, soltes_set, alpha)


def is_biconnected(g: Graph) -> bool:
    """True iff g is connected, has n >= 3 and no articulation vertex."""
    n = g.n
    if n < 3:
        return False
    # pass 1: DFS from 0 recording preorder and tree parents; a vertex's
    # parent is the last vertex to push it before it is popped
    disc = [-1] * n
    parent = [-1] * n
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        if disc[u] >= 0:
            continue
        disc[u] = len(order)
        order.append(u)
        for w in g.adj[u]:
            if disc[w] < 0:
                parent[w] = u
                stack.append(w)
    # a vertex left unreached, or a second tree child of the root
    if len(order) < n or parent.count(0) > 1:
        return False
    # pass 2: low values, children before parents.  A neighbour other than
    # the parent is a descendant, whose low is final, or an ancestor, whose
    # low is still its preorder number.
    low = disc[:]
    for u in reversed(order):
        p = parent[u]
        for w in g.adj[u]:
            if w != p and low[w] < low[u]:
                low[u] = low[w]
        # p > 0: u hangs below a vertex other than the root
        if p > 0 and low[u] >= disc[p]:
            return False
    return True


def profile(g: Graph) -> dict:
    """Summary invariants: girth, diameter, bipartiteness, degree data."""
    degrees = tuple(sorted(len(a) for a in g.adj))
    regular = degrees[0] if degrees and degrees[0] == degrees[-1] else None
    [(_, far, connected, girth, bipartite)] = _packed_pair_sums(
        g, [None], closures=True)
    return {
        "girth": girth or ACYCLIC,
        "diameter": far if connected else INFINITE,
        "bipartite": bipartite,
        "degrees": degrees,
        "regular": regular,
    }
