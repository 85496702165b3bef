"""Fixtures shared by the test modules."""

import pytest

from soltes.enumeration import _ClassStore


def _masks(g):
    return [sum(1 << u for u in nbrs) for nbrs in g.adj]


@pytest.fixture
def same_class():
    """same_class(a, b): whether a and b are isomorphic, decided by the
    generator's own class store (the package's one isomorphism test)."""
    def check(a, b):
        if a.n != b.n:
            return False
        store = _ClassStore(a.n)
        store.add(_masks(a))
        return not store.add(_masks(b))
    return check
