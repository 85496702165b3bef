"""Fixtures shared by the test modules."""

import pytest

from soltes.core import _bfs_raw
from soltes.enumeration import _ClassStore


def vertex_key(g, v):
    """Vertex v's key as the generator's leaf filter gives it (BFS level
    sizes, then sorted shared-neighbour counts), computed from g.adj with
    sets and a BFS."""
    dist = _bfs_raw(g.adj, g.n, v)
    levels = tuple(dist.count(d) for d in range(1, max(dist) + 1))
    shared = sorted(len(set(g.adj[v]) & set(g.adj[u])) for u in range(g.n))
    return levels, tuple(shared)


def closed_walks(g, v):
    """(A^k)_vv for k = 3..8, counted on g.adj with Python ints."""
    walks = [0] * g.n
    walks[v] = 1
    counts = []
    for k in range(1, 9):
        walks = [sum(walks[u] for u in g.adj[w]) for w in range(g.n)]
        if k >= 3:
            counts.append(walks[v])
    return tuple(counts)


def key_rows(g):
    """g's key rows as the generator's leaf filter gives them for a leaf
    that passes: per vertex, vertex_key's level sizes zero-padded to n
    bytes and its shared counts, then closed_walks as big-endian uint64."""
    rows = b""
    for v in range(g.n):
        levels, shared = vertex_key(g, v)
        rows += bytes(levels + (0,) * (g.n - len(levels)) + shared)
        rows += b"".join(c.to_bytes(8, "big") for c in closed_walks(g, v))
    return rows


def leaf(g):
    """(adjacency masks, key rows) of g, as the generator's leaf hands
    them to the class store."""
    return [sum(1 << u for u in nbrs) for nbrs in g.adj], key_rows(g)


@pytest.fixture
def same_class():
    """same_class(a, b): whether a and b are isomorphic, decided by the
    generator's own class store (the package's one isomorphism test)."""
    def check(a, b):
        if a.n != b.n:
            return False
        store = _ClassStore(a.n)
        store.add(*leaf(a))
        return not store.add(*leaf(b))
    return check
