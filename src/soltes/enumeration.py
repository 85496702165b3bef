"""Exhaustive generation of small connected regular graphs up to isomorphism.

The generator grows adjacency for the smallest unsaturated vertex v with
increasing partner indices and touches fresh vertices in index order;
with no further cut it would emit every such breadth-first labelling from
every start vertex.  It skips a partner candidate u whose adjacency mask
duplicates that of a lower vertex up != v: the transposition (up u) is
then an automorphism of the partial graph, so the branch for up already
covers the one for u.  That transposition never moves vertex 0: u > v,
and up != 0, because if v > 0 vertex 0 is saturated and u is not, so
their masks differ, and if v = 0 then up != v.  So every pair (class,
vertex) still has a leaf that labels that vertex 0.  Every edge added
touches the current vertex, so the edge that saturates a proper component
saturates that vertex too, and the branch is cut right there: every leaf
is connected.

At a leaf each vertex has an invariant key (_raw_key: BFS level sizes,
then sorted shared-neighbour counts), and _root_min_keys drops the leaf as
soon as some vertex's key is below vertex 0's.  Some leaf of each class
labels a minimal-key vertex 0, so no class is lost; ties are kept.  The
recursion cuts a branch early when one of its vertices, with all its
neighbours saturated, already has fewer vertices at distance 2 than
vertex 0: its key would be the smaller at every leaf of that branch.  The
surviving leaves reach _ClassStore, which buckets on the sorted keys and
runs the package's one isomorphism test (_isomorphic) against each stored
representative, so every class of connected r-regular graphs on n
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


def _raw_key(masks, v):
    """Vertex v's invariant: BFS level sizes, sorted shared-neighbour counts.

    The level profile is the number of vertices at each BFS distance; the
    second part sorts |N(v) ∩ N(u)| over every u (u = v contributes the
    degree).  Together they separate most vertices of same-degree graphs,
    which keeps the matching below cheap and the buckets nearly pure.  Keys
    are isomorphism invariants and compare as tuples.
    """
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
    return tuple(levels), tuple(shared)


def _root_min_keys(n, masks):
    """Every vertex's _raw_key, or None once one is below vertex 0's.

    Vertex 0 may tie with others; it only has to be minimal.
    """
    root = _raw_key(masks, 0)
    raw = [root]
    for v in range(1, n):
        key = _raw_key(masks, v)
        if key < root:
            return None
        raw.append(key)
    return raw


def _mask_keys(raw, intern):
    """Each vertex's _raw_key, interned through the shared dict to an int.

    Interned ids compare and hash in one step but depend on arrival order,
    so only equality between them means anything.
    """
    keys = []
    for key in raw:
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

    found = place(0, 0)
    # place reaches itself through its closure; breaking that cycle frees
    # the search state on return, not at the next cyclic collection
    del place
    return found


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

    def add(self, masks, raw):
        """True, and a copy of masks is stored, when its class is new.

        raw lists each vertex's _raw_key in masks.
        """
        n = self.n
        keys = _mask_keys(raw, self.intern)
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
    if r == 0 and n > 1:
        return  # n isolated vertices: no connected graph

    adjm = [0] * n
    deg = [0] * n
    store = _ClassStore(n)
    found = []
    full = (1 << n) - 1

    def closed_small_component(v):
        comp = frontier = 1 << v
        while frontier:
            # unsaturated vertices sit above v: pop the highest first
            xi = frontier.bit_length() - 1
            frontier ^= 1 << xi
            if deg[xi] < r:
                return False
            new = adjm[xi] & ~comp
            comp |= new
            frontier |= new
        return comp != full

    def second_level(x):
        """How many vertices are at distance 2 from x."""
        ax = adjm[x]
        reach = 0
        while ax:
            b = ax & -ax
            ax ^= b
            reach |= adjm[b.bit_length() - 1]
        return (reach & ~adjm[x] & ~(1 << x)).bit_count()

    def rec(prev, lo):
        # the smallest unsaturated vertex never moves down a branch
        v = -1
        for x in range(max(prev, 0), n):
            if deg[x] < r:
                v = x
                break
        if v < 0:
            raw = _root_min_keys(n, adjm)
            if raw is not None and store.add(adjm, raw):
                found.append(Graph._from_adj(tuple(
                    tuple(b for b in range(n) if a >> b & 1) for a in adjm)))
            return
        if v != prev:
            lo = v + 1
            # 0..v-1 are saturated.  A vertex x that now lies below v
            # together with its neighbours, and did not below prev, has
            # reached its final second BFS level; vertex 0's can only grow
            # from here, as its neighbours are fixed.  If x's is already
            # the smaller, x's key is below vertex 0's at every leaf under
            # this node, and _root_min_keys would drop them all.
            if v:
                top = 1 << v
                seen = 1 << prev
                s0 = -1
                for x in range(1, v):
                    if seen <= adjm[x] | 1 << x < top:
                        if s0 < 0:
                            s0 = second_level(0)
                        if second_level(x) < s0:
                            return
        # vertices below v are saturated, so the fresh one lies above v
        fresh = -1
        for x in range(v + 1, n):
            if deg[x] == 0:
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
    del rec  # the same cycle as place in _isomorphic
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
