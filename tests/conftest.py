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


def leaf(g):
    """(adjacency masks, vertex keys) of g, as the generator's leaf hands
    them to the class store."""
    masks = [sum(1 << u for u in nbrs) for nbrs in g.adj]
    return masks, [vertex_key(g, v) for v in range(g.n)]


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
