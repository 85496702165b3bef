"""Permutation groups, Cayley graphs, and the bundled generator catalog."""

from __future__ import annotations

import json
from importlib import resources

from .codec import parse_permutation
from .core import INFINITE, Graph, profile, soltes_report
from .transforms import (line_graph, line_graph_action, truncate,
                         truncation_action)

_CLOSURE_CAP = 10 ** 7


class GeneratorCatalogEntry:
    """One catalog row: a named generating set plus its expected invariants."""

    __slots__ = ("name", "degree", "generators", "expected")

    def __init__(self, name, degree, generators, expected):
        self.name = name
        self.degree = degree
        self.generators = list(generators)
        self.expected = dict(expected)

    def parsed_generators(self):
        return [parse_permutation(text, self.degree) for text in self.generators]

    def __repr__(self):
        return f"GeneratorCatalogEntry({self.name})"


def group_closure(gens):
    """All products reachable from the identity, in BFS discovery order.

    Permutations are image tuples on 0..degree-1, and products compose
    left-to-right: elem * s sends x to s[elem[x]].
    """
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0])
    points = list(range(degree))
    for p in gens:
        if len(p) != degree:
            raise ValueError("generators act on different point counts")
        if sorted(p) != points:
            raise ValueError("generator is not a bijection on 0..degree-1")
    order = [tuple(points)]
    seen = set(order)
    for elem in order:
        for s in gens:
            prod = tuple(map(s.__getitem__, elem))
            if prod not in seen:
                seen.add(prod)
                order.append(prod)
                if len(order) > _CLOSURE_CAP:
                    raise RuntimeError(f"group closure exceeded cap of "
                                       f"{_CLOSURE_CAP} elements")
    return order


def cayley_graph(gens, elements) -> Graph:
    """Undirected Cayley graph on the closure, connection set S union S^-1.

    The edge {x, x*s^-1} is the edge {y, y*s} with y = x*s^-1, so the
    generators alone give every edge.  elements is group_closure(gens);
    vertex i is elements[i].
    """
    for s in gens:
        if all(i == x for i, x in enumerate(s)):
            raise ValueError("identity in connection set")
    index = {p: i for i, p in enumerate(elements)}
    return Graph(len(elements), [(i, index[tuple(map(s.__getitem__, elem))])
                                 for i, elem in enumerate(elements)
                                 for s in gens])


def left_actions(gens, elements):
    """Image lists of left multiplication by each generator on elements.

    x -> s*x maps every edge {x, x*t} of the Cayley graph to {s*x, s*x*t},
    so each list is an automorphism of cayley_graph(gens, elements).
    """
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(map(e.__getitem__, s))] for e in elements]
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


def verify_entry(entry):
    """Check an entry's cataloged data, then its transform.

    Field checks cover group order, regularity, girth, diameter and
    bipartiteness.  The Cayley graph is then run through truncation (line
    graph for the one quartic-target entry) and the Šoltés ratio of the
    result is required to reach 1/3.  The deletion scan of the transform
    evaluates one vertex per orbit of the group's left multiplication,
    lifted to the transform's vertices.
    """
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

    ok = all(c["ok"] for c in checks.values()) and ratio_ok
    return {"name": entry.name, "checks": checks, "transform": transform,
            "ok": ok}
