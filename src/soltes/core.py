"""Exact distance computations and invariants for simple undirected graphs.

Vertices are integers 0..n-1.  All distance sums are exact integers; a
disconnected graph has Wiener index INFINITE, a sentinel that supports
equality checks only (any arithmetic with it raises TypeError on purpose).
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
UNREACHABLE = _Sentinel("UNREACHABLE")
ACYCLIC = _Sentinel("ACYCLIC")

# From this order on, all-pairs sums use the packed sweep; below it, one
# pure-python BFS per source, which costs less than the sweep's numpy set-up
# on tiny graphs.  On random cubic graphs the two break even near n = 14; the
# census graphs (n <= 14) stay on the BFS, which keeps the census about 5 %
# faster than the sweep alone would.
_DENSE_MIN_N = 16


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


class DistanceVector:
    """BFS distances from one source; UNREACHABLE marks other components."""

    __slots__ = ("source", "dist")

    def __init__(self, source, dist):
        self.source = source
        self.dist = tuple(dist)

    def __getitem__(self, v):
        return self.dist[v]

    def __len__(self):
        return len(self.dist)

    def __iter__(self):
        return iter(self.dist)

    def __repr__(self):
        return f"DistanceVector(source={self.source}, dist={self.dist})"


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


def _bfs_raw(adj, n, src, blocked=None):
    """Distance list with -1 for unreachable vertices.

    A blocked vertex is marked seen (distance 0) before the search starts,
    so the search never passes through it and it adds nothing to a sum.
    """
    dist = [-1] * n
    if blocked is not None:
        dist[blocked] = 0
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


def bfs_distances(g: Graph, src) -> DistanceVector:
    """Exact unweighted shortest-path distances from src."""
    if not (0 <= src < g.n):
        raise ValueError(f"source {src} out of range for n={g.n}")
    raw = _bfs_raw(g.adj, g.n, src)
    return DistanceVector(src, [d if d >= 0 else UNREACHABLE for d in raw])


def _neighbour_table(g):
    """(max(1, max degree), n) index array: column v lists v's neighbours,
    padded with n, the index of the sweep's all-zero frontier row."""
    n = g.n
    width = max(1, max((len(a) for a in g.adj), default=0))
    table = np.full((width, n), n, dtype=np.intp)
    for v, row in enumerate(g.adj):
        table[: len(row), v] = row
    return table


def _packed_pair_sum(g, removed=None, nbrs=None):
    """(sum of d(u,v) over ordered pairs, max distance, connected flag).

    Simultaneous BFS from every vertex on bit-packed reach sets: level k
    adds, for every source, the neighbors of its level k-1 frontier.  The
    pair-distance sum accumulates as sum over levels of the pairs still
    unreached, so no distance matrix is ever materialized.  Neighbour
    frontiers are ORed in one table row at a time, so the working set stays
    O(n^2 / 64) words whatever the degree.

    nbrs is g's _neighbour_table (built here when None).  With a removed
    vertex v the sweep runs on a copy of the table with v replaced by
    padding everywhere and v's own list all padding: no other row ever
    reads v's frontier, v's row is empty from level 1 on, and the other
    n - 1 vertices make the (n - 1)^2 ordered pairs of G - v.
    """
    n = g.n
    if nbrs is None:
        nbrs = _neighbour_table(g)
    words = (n + 63) // 64
    idx = np.arange(n)
    frontier = np.zeros((n + 1, words), dtype=np.uint64)
    frontier[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
    order = n
    if removed is not None:
        nbrs = np.where(nbrs == removed, n, nbrs)
        nbrs[:, removed] = n
        order = n - 1
    unreached = ~frontier[:n]
    new = np.empty_like(unreached)
    tmp = np.empty_like(unreached)
    pairs = order * order
    reached_bits = order
    total = 0
    level = 0
    while reached_bits < pairs:
        level += 1
        total += pairs - reached_bits
        frontier.take(nbrs[0], axis=0, out=new)
        for column in nbrs[1:]:
            frontier.take(column, axis=0, out=tmp)
            new |= tmp
        new &= unreached
        fresh = int(np.bitwise_count(new).sum())
        if fresh == 0:
            return total, level - 1, False
        unreached ^= new
        reached_bits += fresh
        frontier[:n] = new
    return total, level, True


def _pair_total(g, removed, nbrs):
    """W(g), or W(g - removed) read off g with removed masked out.

    The route follows the order of the graph measured (n - 1 with a removed
    vertex): packed sweep from _DENSE_MIN_N on, one BFS per source below.
    """
    order = g.n if removed is None else g.n - 1
    if order <= 1:
        return 0
    if order >= _DENSE_MIN_N:
        total, _, connected = _packed_pair_sum(g, removed, nbrs)
        if not connected:
            return INFINITE
        return total // 2
    total = 0
    for src in range(g.n):
        if src == removed:
            continue
        raw = _bfs_raw(g.adj, g.n, src, removed)
        for d in raw:
            if d < 0:
                return INFINITE
            total += d
    return total // 2


def wiener(g: Graph):
    """Sum of distances over unordered vertex pairs; INFINITE if disconnected."""
    return _pair_total(g, None, None)


def _wiener_without(g: Graph, v, nbrs=None):
    """W(G - v), computed on g with v masked out instead of building G - v.

    nbrs is g's _neighbour_table, for callers that evaluate many deletions.
    """
    return _pair_total(g, v, nbrs)


def transmission(g: Graph, v):
    """Sum of distances from v to every vertex; INFINITE if any unreachable."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    raw = _bfs_raw(g.adj, g.n, v)
    total = 0
    for d in raw:
        if d < 0:
            return INFINITE
        total += d
    return total


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


def _check_automorphism(g, perm, edge_set):
    """Raise ValueError unless perm (an image list) is an automorphism of g."""
    if len(perm) != g.n or set(perm) != set(range(g.n)):
        raise ValueError(f"permutation is not a bijection on 0..{g.n - 1}")
    for u, v in g.edges():
        a, b = perm[u], perm[v]
        if (a, b) not in edge_set and (b, a) not in edge_set:
            raise ValueError(
                f"not an automorphism: edge ({u},{v}) maps to non-edge ({a},{b})")


def soltes_report(g: Graph, automorphisms=None) -> SoltesReport:
    """Per-vertex deletion analysis of a connected graph.

    Each W(G-v) is computed on g itself with v masked out of the distance
    kernel (_wiener_without); no G-v is built.  automorphisms is an
    optional list of vertex image lists, each an automorphism of g
    (checked; ValueError otherwise).  W(G-v) is constant on the orbits of
    the group they generate, so one deletion per orbit is evaluated and its
    value copied to the rest of the orbit.
    """
    w = wiener(g)
    if w is INFINITE:
        raise ValueError("soltes_report requires a connected graph")
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if automorphisms:
        edge_set = set(g.edges())
        for perm in automorphisms:
            _check_automorphism(g, perm, edge_set)
            for v, image in enumerate(perm):
                parent[find(v)] = find(image)

    nbrs = _neighbour_table(g) if g.n - 1 >= _DENSE_MIN_N else None
    per_orbit = {}
    per_vertex = []
    for v in range(g.n):
        root = find(v)
        if root not in per_orbit:
            per_orbit[root] = _wiener_without(g, v, nbrs)
        per_vertex.append(per_orbit[root])

    soltes_set = tuple(v for v in range(g.n) if per_vertex[v] == w)
    alpha = Fraction(len(soltes_set), g.n) if g.n else Fraction(0, 1)
    return SoltesReport(w, per_vertex, soltes_set, alpha)


def is_biconnected(g: Graph) -> bool:
    """True iff g is connected, has n >= 3 and no articulation vertex."""
    n = g.n
    if n < 3 or not is_connected(g):
        return False
    # iterative DFS low-link articulation test
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    child_count = 0
    timer = 0
    stack = [(0, iter(g.adj[0]))]
    disc[0] = low[0] = timer
    timer += 1
    while stack:
        u, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] < 0:
                parent[w] = u
                disc[w] = low[w] = timer
                timer += 1
                if u == 0:
                    child_count += 1
                stack.append((w, iter(g.adj[w])))
                advanced = True
                break
            elif w != parent[u]:
                if disc[w] < low[u]:
                    low[u] = disc[w]
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if p != 0 and low[u] >= disc[p]:
                    return False
    return child_count <= 1


def _girth(g):
    best = None
    for root in range(g.n):
        dist = [-1] * g.n
        par = [-1] * g.n
        dist[root] = 0
        queue = deque((root,))
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                continue
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    par[w] = u
                    queue.append(w)
                elif w != par[u]:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def _is_bipartite(g):
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        queue = deque((start,))
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if colour[w] < 0:
                    colour[w] = colour[u] ^ 1
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def profile(g: Graph) -> dict:
    """Summary invariants: girth, diameter, bipartiteness, degree data."""
    degrees = tuple(sorted(len(a) for a in g.adj))
    regular = degrees[0] if degrees and degrees[0] == degrees[-1] else None
    girth = _girth(g)
    if girth is None:
        girth = ACYCLIC
    if g.n <= 1:
        diameter = 0
    else:
        _, far, connected = _packed_pair_sum(g)
        diameter = far if connected else INFINITE
    return {
        "girth": girth,
        "diameter": diameter,
        "bipartite": _is_bipartite(g),
        "degrees": degrees,
        "regular": regular,
    }


def contract_set(g: Graph, vs) -> Graph:
    """Merge the vertices of vs into one, dropping loops and parallels.

    The merged vertex sits where min(vs) sat; every other vertex keeps its
    relative order (the same compaction as deleting a vertex).
    """
    vs = set(vs)
    if not vs:
        raise ValueError("cannot contract an empty vertex set")
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    anchor = min(vs)
    new_id = {}
    nxt = 0
    for v in range(g.n):
        if v == anchor:
            merged = nxt
            nxt += 1
        elif v not in vs:
            new_id[v] = nxt
            nxt += 1
    edges = []
    for u, w in g.edges():
        a = merged if u in vs else new_id[u]
        b = merged if w in vs else new_id[w]
        if a != b:
            edges.append((a, b))
    return Graph(nxt, edges)
