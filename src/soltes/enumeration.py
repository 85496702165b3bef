"""Exhaustive generation of small connected regular graphs up to isomorphism.

The generator grows adjacency for the smallest unsaturated vertex with
increasing partner indices, touches fresh vertices in index order, and
skips any partner candidate that duplicates a lower-indexed vertex's
adjacency mask (the two are swappable by a transposition automorphism,
so the lower branch already covers the upper one).  Every edge added
touches the current vertex, so the edge that saturates a proper component
saturates that vertex too, and the branch is cut right there: every leaf
is connected.  Relabelings that survive those cuts are discarded at the
leaves by _ClassStore, which buckets on per-vertex invariants (_mask_keys)
and runs the package's one isomorphism test (_isomorphic) against each
stored representative, so every class of connected r-regular graphs on n
vertices surfaces exactly once.  Classification then counts, per class,
how many vertices leave the Wiener index unchanged when deleted.
"""

from __future__ import annotations

from .core import Graph, soltes_report

_SCALE_CAPS = {3: 16, 4: 13}


class TableRow:
    """One census row: how many graphs have exactly k removable vertices."""

    __slots__ = ("n", "r", "total", "counts")

    def __init__(self, n, r, total, counts):
        self.n = n
        self.r = r
        self.total = total
        self.counts = dict(counts)
        if sum(self.counts.values()) > total:
            raise ValueError(
                f"counts {self.counts} exceed the row total {total}")

    def __eq__(self, other):
        if not isinstance(other, TableRow):
            return NotImplemented
        return (self.n, self.r, self.total, self.counts) == \
            (other.n, other.r, other.total, other.counts)

    def __repr__(self):
        return (f"TableRow(n={self.n}, r={self.r}, total={self.total}, "
                f"counts={self.counts})")


def _mask_keys(n, masks, intern):
    """Per-vertex invariant: distance level profile + shared-neighbour counts.

    The level profile is the number of vertices at each BFS distance; the
    second part sorts |N(v) ∩ N(u)| over every u (u = v contributes the
    degree).  Together they separate most vertices of same-degree graphs,
    which keeps the matching below cheap and the buckets nearly pure.  Each
    distinct profile is interned through the shared dict so the returned
    keys are small ints that compare and hash in one step.
    """
    keys = []
    for v in range(n):
        seen = frontier = 1 << v
        levels = []
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= masks[b.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
            if frontier:
                levels.append(frontier.bit_count())
        mv = masks[v]
        shared = sorted(map(int.bit_count, map(mv.__and__, masks)))
        key = (tuple(levels), tuple(shared))
        kid = intern.get(key)
        if kid is None:
            kid = len(intern)
            intern[key] = kid
        keys.append(kid)
    return keys


def _isomorphic(n, a1, keys1, a2, keys2):
    """Adjacency-preserving bijection search between same-bucket graphs.

    a1/a2 are neighbour bitmasks, keys per-vertex invariants; a vertex may
    only map to one with an identical key.  The partial map is extended in
    breadth-first order from the most constrained vertex, and one bitmask
    comparison per candidate checks consistency with everything mapped so
    far.
    """
    by_key = {}
    for u, k in enumerate(keys2):
        by_key.setdefault(k, []).append(u)
    cand = [by_key.get(k, ()) for k in keys1]
    start = min(range(n), key=lambda v: len(cand[v]))
    order = [start]
    reached = 1 << start
    k = 0
    while k < len(order):
        f = a1[order[k]] & ~reached
        reached |= f
        while f:
            b = f & -f
            f ^= b
            order.append(b.bit_length() - 1)
        k += 1
    order.extend(v for v in range(n) if not reached >> v & 1)
    image = [-1] * n

    def place(k, used):
        if k == n:
            return True
        v = order[k]
        nimg = 0
        f = a1[v]
        while f:
            b = f & -f
            f ^= b
            w = image[b.bit_length() - 1]
            if w >= 0:
                nimg |= 1 << w
        for u in cand[v]:
            if used >> u & 1:
                continue
            if a2[u] & used == nimg:
                image[v] = u
                if place(k + 1, used | (1 << u)):
                    return True
                image[v] = -1
        return False

    return place(0, 0)


class _ClassStore:
    """The classes seen so far, one adjacency-mask representative each.

    Representatives are bucketed on their sorted _mask_keys, so a new graph
    runs _isomorphic only against the same-bucket representatives.
    """

    __slots__ = ("n", "buckets", "intern")

    def __init__(self, n):
        self.n = n
        self.buckets = {}
        self.intern = {}

    def add(self, masks):
        """True, and a copy of masks is stored, when its class is new."""
        n = self.n
        keys = _mask_keys(n, masks, self.intern)
        bucket = self.buckets.setdefault(tuple(sorted(keys)), [])
        for i, (held, held_keys) in enumerate(bucket):
            if _isomorphic(n, masks, keys, held, held_keys):
                if i:
                    # duplicates arrive in runs; keep the hot
                    # representative in front
                    bucket.insert(0, bucket.pop(i))
                return False
        bucket.append((masks.copy(), keys))
        return True


def gen_regular(n, r):
    """Yield one representative per class of connected r-regular graphs."""
    if n <= r:
        raise ValueError("need n > r")
    if (n * r) % 2:
        raise ValueError(f"no {r}-regular graph on {n} vertices: odd n*r")

    adjm = [0] * n
    deg = [0] * n
    store = _ClassStore(n)
    found = []
    full = (1 << n) - 1

    def closed_small_component(v):
        comp = frontier = 1 << v
        while frontier:
            x = frontier & -frontier
            frontier ^= x
            xi = x.bit_length() - 1
            if deg[xi] < r:
                return False
            new = adjm[xi] & ~comp
            comp |= new
            frontier |= new
        return comp != full

    def rec(prev, lo):
        v = -1
        for x in range(n):
            if deg[x] < r:
                v = x
                break
        if v < 0:
            if store.add(adjm):
                edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                         if adjm[a] >> b & 1]
                found.append(Graph(n, edges))
            return
        if v != prev:
            lo = v + 1
        fresh = -1
        for x in range(n):
            if deg[x] == 0 and x != v:
                fresh = x
                break
        av = adjm[v]
        for u in range(lo, n):
            if deg[u] >= r or av >> u & 1:
                continue
            if deg[u] == 0 and u != fresh:
                continue
            # identical masks make u and the earlier vertex swappable by a
            # transposition automorphism, so that branch already covers
            # this one
            au = adjm[u]
            skip = False
            for up in range(u):
                if adjm[up] == au and up != v:
                    skip = True
                    break
            if skip:
                continue
            adjm[v] |= 1 << u
            adjm[u] |= 1 << v
            deg[v] += 1
            deg[u] += 1
            if not (deg[v] == r and closed_small_component(v)):
                rec(v, u + 1)
            adjm[v] &= ~(1 << u)
            adjm[u] &= ~(1 << v)
            deg[v] -= 1
            deg[u] -= 1

    rec(-1, 0)
    yield from found


def classify_table(n, r) -> TableRow:
    """Census row over gen_regular(n, r) with per-k removable-vertex counts."""
    cap = _SCALE_CAPS.get(r, 12)
    if n > cap:
        raise ValueError(f"n={n} exceeds the r={r} scale cap of {cap}")
    total = 0
    counts = {}
    for g in gen_regular(n, r):
        total += 1
        k = len(soltes_report(g).soltes_set)
        if k:
            counts[k] = counts.get(k, 0) + 1
    return TableRow(n, r, total, counts)
