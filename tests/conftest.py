"""Fixtures shared by the test modules."""

import pytest

from soltes.enumeration import _ClassStore, _raw_key


def leaf(g):
    """(adjacency masks, raw vertex keys) of g, as the generator's leaf
    hands them to the class store."""
    masks = [sum(1 << u for u in nbrs) for nbrs in g.adj]
    return masks, [_raw_key(masks, v) for v in range(g.n)]


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
