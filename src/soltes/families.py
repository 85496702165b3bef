"""Deterministic constructors for the named graph families.

The double-chain base g_t_r (at r = 1 the plain ring of 2t diamonds, with
8t + 8 vertices) uses a fixed vertex numbering so the labelled special
vertices are stable between runs: diamond k occupies 4k..4k+3 as (left tip,
centre, centre, right tip), the fan trees follow, and the 8-vertex head
gadget comes last as z1, z2, c1, c2, p1, p2, v1, v2.  Because g_t_r alone
knows that numbering, it also yields the base's chain swaps and mirror.
"""

from __future__ import annotations

from .core import Graph


class LabeledGraph:
    """A graph together with a name -> vertex map for its special vertices.

    automorphisms holds vertex image lists that the constructor claims are
    automorphisms of graph; a user checks them before relying on one.
    """

    __slots__ = ("graph", "labels", "automorphisms")

    def __init__(self, graph, labels, automorphisms=()):
        self.graph = graph
        self.labels = dict(labels)
        self.automorphisms = tuple(automorphisms)

    def __getitem__(self, name):
        return self.labels[name]

    def __repr__(self):
        return f"LabeledGraph({self.graph!r}, labels={sorted(self.labels)})"


def cycle(n) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n) -> Graph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel(n) -> LabeledGraph:
    """Hub (vertex 0, labelled) joined to every vertex of an (n-1)-cycle."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = n - 1
    edges = [(0, 1 + i) for i in range(rim)]
    edges += [(1 + i, 1 + (i + 1) % rim) for i in range(rim)]
    return LabeledGraph(Graph(n, edges), {"hub": 0})


def _diamond_edges(base):
    """K4 minus an edge on base..base+3; the missing edge joins the tips."""
    lt, ca, cb, rt = base, base + 1, base + 2, base + 3
    return [(lt, ca), (lt, cb), (ca, cb), (ca, rt), (cb, rt)]


def g_t_r(t, r) -> LabeledGraph:
    """2^(r-1) diamond chains fanned between two binary trees and a head.

    Each chain is 2t diamonds joined tip to tip; chain ends are the leaves
    of two depth-(r-1) binary trees whose roots hang off the subdivision
    pair z1, z2 of the head gadget.  The labelled centers are the two
    endpoints of the middle junction of every chain (2^r vertices in one
    orbit); u1, u2 are the centers of chain 0.  r=1 collapses to the plain
    ring: one chain whose ends attach directly to z1 and z2.

    automorphisms holds 2^(r-1) - 1 chain swaps, none at r = 1, one per
    internal fan-tree node: the subtrees under its two children trade
    places in both trees at once, each chain below them with its partner.
    Every swap fixes the head, and together they move chain 0 onto every
    chain.  The last entry is the mirror, which reverses every chain and
    swaps the two fan trees, z1 with z2 and c1 with c2; it fixes p1, p2,
    v1 and v2 and maps u1 to u2.  So all 2^r centers form one orbit.
    """
    if t < 1 or r < 1:
        raise ValueError("g_t_r needs t >= 1 and r >= 1")
    chains = 2 ** (r - 1)
    chain_len = 2 * t
    internal = chains - 1
    base_t1 = 4 * chain_len * chains
    base_t2 = base_t1 + internal
    head = base_t2 + internal
    z1, z2 = head, head + 1
    c1, c2 = head + 2, head + 3
    p1, p2 = head + 4, head + 5
    v1, v2 = head + 6, head + 7
    n = head + 8

    edges = []
    centers = []
    for k in range(chains):
        first = k * chain_len
        for j in range(chain_len):
            edges.extend(_diamond_edges(4 * (first + j)))
        for j in range(chain_len - 1):
            edges.append((4 * (first + j) + 3, 4 * (first + j + 1)))
        centers.append(4 * (first + t - 1) + 3)
        centers.append(4 * (first + t))

    def tree_edges(base, leaf_of_chain):
        # heap numbering on 1..2^r-1; nodes below 2^(r-1) are internal
        def vid(node):
            if node < chains:
                return base + node - 1
            return leaf_of_chain(node - chains)
        for node in range(1, chains):
            for child in (2 * node, 2 * node + 1):
                edges.append((vid(node), vid(child)))
        return vid(1)

    root1 = tree_edges(base_t1, lambda k: 4 * k * chain_len)
    root2 = tree_edges(base_t2, lambda k: 4 * (k * chain_len + chain_len - 1) + 3)

    edges += [(z1, root1), (z2, root2), (z1, z2), (z1, c1), (z2, c2),
              (c1, p1), (p1, c2), (c2, p2), (p2, c1), (p1, v1), (p2, v2)]

    def owned(node):
        # an internal node's vertex in each tree; a leaf's whole chain
        if node < chains:
            return (base_t1 + node - 1, base_t2 + node - 1)
        first = 4 * (node - chains) * chain_len
        return range(first, first + 4 * chain_len)

    identity = tuple(range(n))
    swaps = []
    for node in range(1, chains):
        # l levels below node's children, heap node x of the first subtree
        # trades places with x + 2^l of the second
        perm = list(identity)  # shares identity's int objects
        row, step = [2 * node], 1
        while row[0] < 2 * chains:
            for x in row:
                for a, b in zip(owned(x), owned(x + step)):
                    perm[a], perm[b] = b, a
            row = [c for x in row for c in (2 * x, 2 * x + 1)]
            step *= 2
        swaps.append(tuple(perm))
    # the mirror: chain offset o -> 8t - 1 - o, the fan trees trade places
    # node for node, z1 <-> z2 and c1 <-> c2
    span = 4 * chain_len
    mirror = [x + span - 1 - 2 * (x % span) for x in range(base_t1)]
    mirror += [*range(base_t2, head), *range(base_t1, base_t2),
               z2, z1, c2, c1, p1, p2, v1, v2]
    swaps.append(tuple(mirror))
    labels = {
        "u1": centers[0], "u2": centers[1],
        "z1": z1, "z2": z2, "c1": c1, "c2": c2, "p1": p1, "p2": p2,
        "v1": v1, "v2": v2,
        "centers": tuple(centers),
    }
    return LabeledGraph(Graph(n, edges), labels, swaps)
