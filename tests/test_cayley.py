"""Permutation algebra, group closure, and the bundled catalog."""

import pytest

from soltes.cayley import (GeneratorCatalogEntry, Permutation, catalog_entry,
                           cayley_graph, group_closure, load_catalog,
                           verify_entry)
from soltes.codec import parse_permutation
from soltes.core import profile
from soltes.families import cycle


def test_permutation_composition_is_left_to_right():
    p = parse_permutation("(1,2)", 3)
    q = parse_permutation("(2,3)", 3)
    r = p * q
    # apply p first: 0 -> 1, then q: 1 -> 2
    assert r(0) == 2
    assert (q * p)(0) == 1
    assert (p * p).is_identity()


def test_permutation_basics():
    p = Permutation((2, 0, 1))
    assert p.degree == 3
    assert p.inverse().map == (1, 2, 0)
    assert (p * p.inverse()).is_identity()
    assert Permutation.identity(4)(3) == 3
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 0, 1)) * Permutation((1, 0))


def test_group_closure_symmetric_group():
    gens = [parse_permutation("(1,2)", 3), parse_permutation("(1,2,3)", 3)]
    els = group_closure(gens)
    assert len(els) == 6
    assert els[0].is_identity()
    assert len({p.map for p in els}) == 6


def test_group_closure_cap():
    gens = [parse_permutation("(1,2,3,4,5,6,7)", 7)]
    with pytest.raises(RuntimeError):
        group_closure(gens, cap=3)


def test_cayley_graph_of_cyclic_group_is_cycle(same_class):
    g = cayley_graph([parse_permutation("(1,2,3,4,5,6,7)", 7)])
    assert same_class(g, cycle(7))


def test_cayley_graph_involutions_give_cubic():
    gens = [parse_permutation(s, 6) for s in
            ("(1,2)(3,4)(5,6)", "(1,4)(2,5)(3,6)", "(1,6)(2,3)(4,5)")]
    g = cayley_graph(gens)
    assert profile(g)["regular"] == 3
    assert g.n == len(group_closure(gens))


def test_cayley_graph_rejects_identity_generator():
    with pytest.raises(ValueError):
        cayley_graph([Permutation.identity(4)])


def test_catalog_contents():
    entries = load_catalog()
    assert len(entries) == 8
    orders = [e.expected["group_order"] for e in entries]
    assert orders == [384, 600, 768, 1000, 1056, 1056, 1280, 324]
    kinds = {e.expected["transform"] for e in entries}
    assert kinds == {"truncation", "line_graph"}
    for e in entries:
        gens = e.parsed_generators()
        assert all(p.degree == e.degree for p in gens)


def test_catalog_entry_lookup():
    e = catalog_entry("CVT(384,805)")
    assert e.expected["girth"] == 6
    with pytest.raises(ValueError):
        catalog_entry("CVT(1,1)")


def test_verify_entry_fields_on_smallest():
    e = catalog_entry("CVT(324,104)")
    result = verify_entry(e, include_transform=False)
    assert result["ok"]
    assert result["transform"] is None
    checks = result["checks"]
    assert checks["group_order"]["actual"] == 324
    assert checks["regular"]["ok"]
    assert checks["girth"]["ok"] and checks["diameter"]["ok"]


def test_verify_entry_reports_mismatch():
    e = catalog_entry("CVT(384,805)")
    bad = GeneratorCatalogEntry(e.name, e.degree, e.generators,
                                dict(e.expected, girth=5))
    result = verify_entry(bad, include_transform=False)
    assert not result["ok"]
    assert not result["checks"]["girth"]["ok"]
    assert result["checks"]["girth"]["actual"] == 6
