"""Permutation groups, Cayley graphs, and the bundled generator catalog."""

from __future__ import annotations

import json
from importlib import resources

from .core import INFINITE, Graph, profile, soltes_report

_CLOSURE_CAP = 10 ** 7


class Permutation:
    """Bijection on points 0..degree-1, stored as an image tuple.

    Products compose left-to-right: (p * q)(x) = q(p(x)).
    """

    __slots__ = ("map",)

    def __init__(self, mapping):
        m = tuple(mapping)
        if sorted(m) != list(range(len(m))):
            raise ValueError("mapping is not a bijection on 0..degree-1")
        self.map = m

    @property
    def degree(self):
        return len(self.map)

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.map))

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("degree mismatch in permutation product")
        om = other.map
        return Permutation(tuple(om[x] for x in self.map))

    def __call__(self, point):
        return self.map[point]

    def inverse(self):
        inv = [0] * len(self.map)
        for i, x in enumerate(self.map):
            inv[x] = i
        return Permutation(inv)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.map == other.map

    def __hash__(self):
        return hash(self.map)

    def __repr__(self):
        return f"Permutation({self.map})"


class GeneratorCatalogEntry:
    """One catalog row: a named generating set plus its expected invariants."""

    __slots__ = ("name", "degree", "generators", "expected")

    def __init__(self, name, degree, generators, expected):
        self.name = name
        self.degree = degree
        self.generators = list(generators)
        self.expected = dict(expected)

    def parsed_generators(self):
        from .codec import parse_permutation
        return [parse_permutation(text, self.degree) for text in self.generators]

    def __repr__(self):
        return f"GeneratorCatalogEntry({self.name})"


def group_closure(gens, cap=_CLOSURE_CAP):
    """All products reachable from the identity, in BFS discovery order."""
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    for p in gens:
        if p.degree != degree:
            raise ValueError("generators act on different point counts")
    ident = Permutation.identity(degree)
    order = [ident]
    seen = {ident.map}
    frontier = [ident]
    while frontier:
        nxt = []
        for elem in frontier:
            for s in gens:
                prod = elem * s
                if prod.map not in seen:
                    seen.add(prod.map)
                    order.append(prod)
                    nxt.append(prod)
                    if len(order) > cap:
                        raise RuntimeError(
                            f"group closure exceeded cap of {cap} elements")
        frontier = nxt
    return order


def cayley_graph(gens, elements=None) -> Graph:
    """Undirected Cayley graph on the closure, connection set S union S^-1.

    elements, when given, is group_closure(gens), which then is not
    recomputed; vertex i is elements[i].
    """
    connection = []
    seen = set()
    for p in list(gens) + [p.inverse() for p in gens]:
        if p.is_identity():
            raise ValueError("identity in connection set")
        if p.map not in seen:
            seen.add(p.map)
            connection.append(p)
    if elements is None:
        elements = group_closure(gens)
    index = {p.map: i for i, p in enumerate(elements)}
    edges = set()
    for i, elem in enumerate(elements):
        for s in connection:
            j = index[(elem * s).map]
            edges.add((i, j) if i < j else (j, i))
    return Graph(len(elements), sorted(edges))


def left_actions(gens, elements):
    """Image lists of left multiplication by each generator on elements.

    x -> s*x maps every edge {x, x*t} of the Cayley graph to {s*x, s*x*t},
    so each list is an automorphism of cayley_graph(gens, elements).
    """
    index = {p.map: i for i, p in enumerate(elements)}
    return [[index[tuple(e.map[x] for x in s.map)] for e in elements]
            for s in gens]


def load_catalog():
    """The eight bundled generator-set entries, in catalog order."""
    with resources.files("soltes").joinpath("data/cayley_catalog.json").open() as fh:
        raw = json.load(fh)
    return [GeneratorCatalogEntry(e["name"], e["degree"], e["generators"],
                                  e["expected"]) for e in raw]


def catalog_entry(name):
    for entry in load_catalog():
        if entry.name == name:
            return entry
    raise ValueError(f"no catalog entry named {name!r}")


def verify_entry(entry, include_transform=True):
    """Check an entry's cataloged data, optionally through its transform.

    Field checks cover group order, regularity, girth, diameter and
    bipartiteness.  With include_transform, the Cayley graph is run through
    truncation (line graph for the one quartic-target entry) and the
    Šoltés ratio of the result is required to reach 1/3.  The deletion
    scan of the transform evaluates one vertex per orbit of the group's
    left multiplication, lifted to the transform's vertices.
    """
    from .transforms import (line_graph, line_graph_action, truncate,
                             truncation_action)

    gens = entry.parsed_generators()
    elements = group_closure(gens)
    checks = {}

    def record(field, expected, actual):
        checks[field] = {"expected": expected, "actual": actual,
                         "ok": expected == actual}

    record("group_order", entry.expected["group_order"], len(elements))
    g = cayley_graph(gens, elements)
    prof = profile(g)
    record("regular", 3, prof["regular"])
    record("girth", entry.expected["girth"], prof["girth"])
    record("diameter", entry.expected["diameter"], prof["diameter"])
    record("bipartite", entry.expected["bipartite"], prof["bipartite"])
    connected = prof["diameter"] is not INFINITE
    checks["connected"] = {"expected": True, "actual": connected,
                           "ok": connected}

    transform = None
    if include_transform:
        use_line_graph = entry.expected.get("transform") == "line_graph"
        h = line_graph(g) if use_line_graph else truncate(g)
        lift = line_graph_action if use_line_graph else truncation_action
        actions = [lift(g, a) for a in left_actions(gens, elements)]
        report = soltes_report(h, automorphisms=actions)
        ratio_ok = 3 * len(report.soltes_set) >= h.n
        degrees = {len(a) for a in h.adj}
        transform = {
            "kind": "line_graph" if use_line_graph else "truncation",
            "order": h.n,
            "regular": degrees.pop() if len(degrees) == 1 else None,
            "soltes_count": len(report.soltes_set),
            "alpha_at_least_third": ratio_ok,
        }

    ok = all(c["ok"] for c in checks.values())
    if transform is not None:
        ok = ok and transform["alpha_at_least_third"]
    return {"name": entry.name, "checks": checks, "transform": transform,
            "ok": ok}
