"""Group closure, Cayley graphs, and the bundled catalog."""

import random

import pytest

import soltes.cayley
from soltes.cayley import (GeneratorCatalogEntry, catalog_entry, cayley_graph,
                           group_closure, load_catalog, verify_entry)
from soltes.codec import parse_permutation
from soltes.core import Graph, profile
from soltes.families import cycle


def test_group_closure_order_composes_left_to_right():
    p = parse_permutation("(1,2)", 3)
    q = parse_permutation("(2,3)", 3)
    # p * q applies p first: 0 -> 1 -> 2, so (2, 0, 1) is found before
    # q * p = (1, 2, 0)
    assert group_closure([p, q]) == [
        (0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)]


def test_group_closure_rejects_bad_generators():
    with pytest.raises(ValueError):
        group_closure([(1, 0, 2), (0, 0, 1)])
    with pytest.raises(ValueError):
        group_closure([(2, 0, 1), (1, 0)])
    with pytest.raises(ValueError):
        group_closure([])


def test_group_closure_symmetric_group():
    gens = [parse_permutation("(1,2)", 3), parse_permutation("(1,2,3)", 3)]
    els = group_closure(gens)
    assert len(els) == 6
    assert els[0] == (0, 1, 2)
    assert len(set(els)) == 6


def test_group_closure_cap(monkeypatch):
    monkeypatch.setattr(soltes.cayley, "_CLOSURE_CAP", 3)
    gens = [parse_permutation("(1,2,3,4,5,6,7)", 7)]
    with pytest.raises(RuntimeError):
        group_closure(gens)


def test_cayley_graph_of_cyclic_group_is_cycle(same_class):
    gens = [parse_permutation("(1,2,3,4,5,6,7)", 7)]
    g = cayley_graph(gens, group_closure(gens))
    assert same_class(g, cycle(7))


def test_cayley_graph_involutions_give_cubic():
    gens = [parse_permutation(s, 6) for s in
            ("(1,2)(3,4)(5,6)", "(1,4)(2,5)(3,6)", "(1,6)(2,3)(4,5)")]
    elements = group_closure(gens)
    g = cayley_graph(gens, elements)
    assert profile(g)["regular"] == 3
    assert g.n == len(elements)


def test_cayley_graph_rejects_identity_generator():
    for ident in ((0, 1, 2, 3), [0, 1, 2, 3]):
        gens = [(1, 0, 2, 3), ident]
        elements = group_closure(gens)
        with pytest.raises(ValueError, match="identity in connection set"):
            cayley_graph(gens, elements)


def test_cayley_graph_matches_connection_set_oracle():
    # x ~ x*s for every s in S and in S^-1, with the inverses and the
    # products written out here
    rng = random.Random(7)
    for trial in range(40):
        degree = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            if degree >= 3 and rng.random() < 0.4:
                a, b, c = rng.sample(range(degree), 3)
                s = list(range(degree))
                s[a], s[b], s[c] = b, c, a
            else:
                s = list(range(degree))
                rng.shuffle(s)
            if s != list(range(degree)):
                gens.append(tuple(s))
        if not gens:
            continue
        elements = group_closure(gens)
        index = {p: i for i, p in enumerate(elements)}
        connection = []
        for s in gens:
            inv = [0] * degree
            for x, y in enumerate(s):
                inv[y] = x
            connection += [s, tuple(inv)]
        edges = [(i, index[tuple(t[x[k]] for k in range(degree))])
                 for i, x in enumerate(elements) for t in connection]
        want = Graph(len(elements), edges)
        assert cayley_graph(gens, elements) == want, (trial, gens)


def test_catalog_contents():
    entries = load_catalog()
    assert len(entries) == 8
    orders = [e.expected["group_order"] for e in entries]
    assert orders == [384, 600, 768, 1000, 1056, 1056, 1280, 324]
    kinds = {e.expected["transform"] for e in entries}
    assert kinds == {"truncation", "line_graph"}
    for e in entries:
        gens = e.parsed_generators()
        assert all(type(p) is tuple and len(p) == e.degree for p in gens)


def test_catalog_entry_lookup():
    e = catalog_entry("CVT(384,805)")
    assert e.expected["girth"] == 6
    with pytest.raises(ValueError):
        catalog_entry("CVT(1,1)")


def test_verify_entry_fields_on_smallest():
    e = catalog_entry("CVT(324,104)")
    result = verify_entry(e)
    assert result["ok"]
    assert result["transform"]["kind"] == "line_graph"
    assert result["transform"]["alpha_at_least_third"]
    checks = result["checks"]
    assert checks["group_order"]["actual"] == 324
    assert checks["regular"]["ok"]
    assert checks["girth"]["ok"] and checks["diameter"]["ok"]


def test_verify_entry_reports_mismatch():
    e = catalog_entry("CVT(384,805)")
    bad = GeneratorCatalogEntry(e.name, e.degree, e.generators,
                                dict(e.expected, girth=5))
    result = verify_entry(bad)
    assert not result["ok"]
    assert result["transform"]["kind"] == "truncation"
    assert result["transform"]["alpha_at_least_third"]
    assert not result["checks"]["girth"]["ok"]
    assert result["checks"]["girth"]["actual"] == 6
