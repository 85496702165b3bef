"""Correctness checks made apart from the program under test.

Each check_<workload>(spec, outputs, captured, seed) takes the first
round's CLI outputs (one string per call, None for a call that failed and
is not checked) and returns a list of error messages, one per fault found;
an empty list means the outputs are right.
Distances come from networkx and scipy's breadth-first search, never from
soltes, and graphs are re-read with networkx's graph6 reader.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from workloads import CATALOG, OEIS, graph

# The generators are input data; everything derived from them is rebuilt here.
CATALOG_JSON = (Path(__file__).resolve().parents[1]
                / "src" / "soltes" / "data" / "cayley_catalog.json")

_ROW = re.compile(r"TableRow\(n=(\d+), r=(\d+), total=(\d+), counts=(\{.*\})\)")


class Distances:
    """All-pairs distances of a fixed graph, one vertex optionally removed.

    Small graphs go through a dense Floyd-Warshall, which avoids scipy's
    per-call cost on the census's thousands of 14-vertex graphs; larger
    ones through scipy's breadth-first search.
    """

    DENSE_MAX_N = 32

    def __init__(self, n, edges):
        self.n = n
        a = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([a[:, 0], a[:, 1]])
        cols = np.concatenate([a[:, 1], a[:, 0]])
        self.adj = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                              shape=(n, n))
        if n <= self.DENSE_MAX_N:
            self.adj = self.adj.toarray()

    def matrix(self, drop=None):
        adj = self.adj
        if drop is not None:
            keep = np.ones(self.n, dtype=bool)
            keep[drop] = False
            adj = adj[keep][:, keep]
        if self.n > self.DENSE_MAX_N:
            return shortest_path(adj, method="D", directed=False, unweighted=True)
        d = np.where(adj > 0, 1.0, np.inf)
        np.fill_diagonal(d, 0.0)
        for k in range(len(d)):
            np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
        return d

    def wiener(self, drop=None):
        """W of the graph (minus drop); None when it is disconnected."""
        d = self.matrix(drop)
        if np.isinf(d).any():
            return None
        return int(d.sum()) // 2


def _invariant(dist):
    """Sorted per-vertex distance profiles: equal for isomorphic graphs."""
    d = dist.astype(np.int64)
    width = int(d.max()) + 1
    rows = sorted(tuple(np.bincount(row, minlength=width)) for row in d)
    return tuple(rows)


def check_census(spec, outputs, captured, seed):
    errors = []
    if captured is None or len(captured) != len(outputs):
        return ["census: the generated graphs were not captured"]
    for (n, r), text, graphs in zip(spec["expect"]["rows"], outputs, captured):
        where = f"census n={n} r={r}"
        if text is None:
            continue
        m = _ROW.fullmatch(text.strip())
        if m is None:
            errors.append(f"{where}: unreadable output {text.strip()[:80]!r}")
            continue
        total = int(m.group(3))
        counts = {int(k): int(v) for k, v in
                  re.findall(r"(\d+): (\d+)", m.group(4))}
        if (int(m.group(1)), int(m.group(2))) != (n, r):
            errors.append(f"{where}: output is for another row")
        if total != OEIS[(n, r)]:
            errors.append(f"{where}: total {total} != OEIS {OEIS[(n, r)]}")
        if len(graphs) != total:
            errors.append(f"{where}: {len(graphs)} graphs emitted, total {total}")
        found = {}
        buckets = {}
        for k, rec in enumerate(graphs):
            order, edges = rec[-1], [tuple(e) for e in rec[:-1]]
            g = graph(order, edges)
            if (order != n or g.number_of_edges() != len(edges)
                    or any(u == v for u, v in edges)):
                errors.append(f"{where}: graph {k} is not simple on {n} vertices")
                continue
            if any(d != r for _, d in g.degree()) or not nx.is_connected(g):
                errors.append(f"{where}: graph {k} is not connected {r}-regular")
                continue
            dist = Distances(n, edges)
            full = dist.matrix()
            w = int(full.sum()) // 2
            removable = sum(dist.wiener(v) == w for v in range(n))
            if removable:
                found[removable] = found.get(removable, 0) + 1
            buckets.setdefault(_invariant(full), []).append(g)
        for bucket in buckets.values():
            for i in range(len(bucket)):
                for j in range(i):
                    if nx.is_isomorphic(bucket[i], bucket[j]):
                        errors.append(f"{where}: two emitted graphs are isomorphic")
        if found != counts:
            errors.append(f"{where}: removable counts {counts} != "
                          f"independent {found}")
    return errors


def _alpha(count, n):
    if count == 0:
        return f"0/{n}"
    f = Fraction(count, n)
    return f"{f.numerator}/{f.denominator}"


def check_scan(spec, outputs, captured, seed):
    stream = spec["expect"]["stream"]
    if outputs[0] is None:
        return []
    lines = outputs[0].splitlines()
    if len(lines) != len(stream):
        return [f"scan: {len(lines)} output lines for {len(stream)} graphs"]
    rng = random.Random(seed)
    errors = []
    for k, (line, item) in enumerate(zip(lines, stream)):
        where = f"scan line {k} ({item['label']}, n={item['n']})"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            errors.append(f"{where}: not JSON")
            continue
        if rec.get("id") != item["graph6"]:
            errors.append(f"{where}: id does not match the input line")
            continue
        if "error" in rec:
            errors.append(f"{where}: error {rec['error']!r}")
            continue
        g = nx.from_graph6_bytes(item["graph6"].encode("ascii"))
        n = g.number_of_nodes()
        w = nx.wiener_index(g)
        vertices = rec["soltes_vertices"]
        if rec["n"] != n:
            errors.append(f"{where}: n {rec['n']} != {n}")
        if rec["wiener"] != w:
            errors.append(f"{where}: wiener {rec['wiener']} != networkx {w}")
        if (vertices != sorted(set(vertices)) or rec["soltes_count"] != len(vertices)
                or any(not 0 <= v < n for v in vertices)):
            errors.append(f"{where}: malformed vertex list or count")
            continue
        if rec["alpha"] != _alpha(len(vertices), n):
            errors.append(f"{where}: alpha {rec['alpha']} != "
                          f"{_alpha(len(vertices), n)}")
        missing = set(item["must_include"]) - set(vertices)
        if missing:
            errors.append(f"{where}: known Soltes vertices {sorted(missing)} missing")
        dist = Distances(n, g.edges())
        others = sorted(set(range(n)) - set(vertices))
        for v in vertices:
            if dist.wiener(v) != w:
                errors.append(f"{where}: vertex {v} reported but W(G-v) != W(G)")
        for v in rng.sample(others, min(2, len(others))):
            if dist.wiener(v) == w:
                errors.append(f"{where}: vertex {v} not reported but W(G-v) = W(G)")
    return errors


def _permutation(text, degree):
    image = list(range(degree))
    for cycle in re.findall(r"\(([^()]*)\)", text):
        pts = [int(x) - 1 for x in cycle.split(",") if x.strip()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            image[a] = b
    return tuple(image)


def _compose(p, q):
    """x -> q(p(x)); any fixed convention gives an isomorphic Cayley graph."""
    return tuple(q[x] for x in p)


def _catalog_graph(name):
    """The entry's Cayley graph (neighbour lists) and the left action of
    each generator on its vertices."""
    with open(CATALOG_JSON, encoding="utf-8") as fh:
        entry = next(e for e in json.load(fh) if e["name"] == name)
    gens = [_permutation(t, entry["degree"]) for t in entry["generators"]]
    ident = tuple(range(entry["degree"]))
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = _compose(g, s)
                if h not in seen:
                    seen.add(h)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    index = {g: i for i, g in enumerate(elements)}
    inverse = [tuple(sorted(range(len(s)), key=s.__getitem__)) for s in gens]
    connection = set(gens) | set(inverse)
    nbrs = [sorted(index[_compose(g, s)] for s in connection) for g in elements]
    left = [[index[_compose(h, g)] for g in elements] for h in gens]
    return elements, nbrs, left


def _transform(nbrs, left, kind):
    """Vertices, edges and lifted automorphisms of the truncation or line
    graph of the graph with neighbour lists nbrs."""
    if kind == "truncation":
        verts = [(v, u) for v in range(len(nbrs)) for u in nbrs[v]]
        vid = {x: i for i, x in enumerate(verts)}
        edges = set()
        for v, row in enumerate(nbrs):
            corners = [vid[(v, u)] for u in row]
            edges.update((a, b) for a in corners for b in corners if a < b)
            edges.update(tuple(sorted((vid[(v, u)], vid[(u, v)]))) for u in row)
        lifts = [[vid[(f[v], f[u])] for v, u in verts] for f in left]
    else:
        verts = sorted({(min(v, u), max(v, u)) for v in range(len(nbrs))
                        for u in nbrs[v]})
        vid = {x: i for i, x in enumerate(verts)}
        edges = set()
        for v, row in enumerate(nbrs):
            inc = [vid[(min(v, u), max(v, u))] for u in row]
            edges.update((a, b) for a in inc for b in inc if a < b)
        lifts = [[vid[tuple(sorted((f[a], f[b])))] for a, b in verts]
                 for f in left]
    return len(verts), sorted(edges), lifts


def _orbits(n, maps):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for f in maps:
        for x, y in enumerate(f):
            a, b = find(x), find(y)
            if a != b:
                parent[a] = b
    orbits = {}
    for x in range(n):
        orbits.setdefault(find(x), []).append(x)
    return list(orbits.values())


def catalog_truth(name, seed):
    """(Soltes count, errors) for one entry's transform, worked out without
    soltes: one W(H-v) per orbit of the group's left action, plus a seeded
    sample of vertices from each side rechecked one by one."""
    group_order, kind = CATALOG[name]
    elements, nbrs, left = _catalog_graph(name)
    errors = []
    if len(elements) != group_order:
        errors.append(f"{name}: independent closure has {len(elements)} "
                      f"elements, not {group_order}")
    n, edges, lifts = _transform(nbrs, left, kind)
    edge_set = set(edges)
    for f in lifts:
        if any(tuple(sorted((f[a], f[b]))) not in edge_set for a, b in edges):
            errors.append(f"{name}: a lifted group element is no automorphism")
    dist = Distances(n, edges)
    w = dist.wiener()
    soltes, other = [], []
    for orbit in _orbits(n, lifts):
        (soltes if dist.wiener(orbit[0]) == w else other).append(orbit)
    rng = random.Random(seed)
    for side, want in ((soltes, True), (other, False)):
        for orbit in side:
            v = rng.choice(orbit)
            if (dist.wiener(v) == w) != want:
                errors.append(f"{name}: vertex {v} disagrees with its orbit")
    return sum(len(o) for o in soltes), errors


def check_catalog(spec, outputs, captured, seed):
    errors = []
    for name, text in zip(spec["expect"]["entries"], outputs):
        if text is None:
            continue
        group_order, kind = CATALOG[name]
        try:
            rec = json.loads(text)
        except json.JSONDecodeError:
            errors.append(f"{name}: output is not JSON")
            continue
        t = rec.get("transform") or {}
        order = 3 * group_order if kind == "truncation" else 3 * group_order // 2
        if rec.get("ok") is not True or rec.get("name") != name:
            errors.append(f"{name}: not ok")
        if t.get("kind") != kind or t.get("order") != order:
            errors.append(f"{name}: transform {t.get('kind')} of order "
                          f"{t.get('order')}, expected {kind} of order {order}")
        if t.get("regular") != (3 if kind == "truncation" else 4):
            errors.append(f"{name}: transform is not regular of the right degree")
        count = t.get("soltes_count", -1)
        if 3 * count < order:
            errors.append(f"{name}: {count} Soltes vertices is below n/3")
        truth, found = catalog_truth(name, seed)
        errors += found
        if count != truth:
            errors.append(f"{name}: soltes_count {count} != independent {truth}")
    return errors


def check_construct(spec, outputs, captured, seed):
    errors = []
    for (r, t, q), text in zip(spec["expect"]["builds"], outputs):
        where = f"construct r={r} t={t} q={q}"
        if text is None:
            continue
        lines = text.splitlines()
        if len(lines) != 2:
            errors.append(f"{where}: expected a graph6 line and a JSON line")
            continue
        try:
            g = nx.from_graph6_bytes(lines[0].encode("ascii"))
            plan = json.loads(lines[1])
        except (ValueError, json.JSONDecodeError) as exc:
            errors.append(f"{where}: unreadable output ({exc})")
            continue
        n = g.number_of_nodes()
        if plan.get("verification", {}).get("ok") is not True:
            errors.append(f"{where}: the program's own verification failed")
        if plan["r"] != r or plan["t"] != t or (q is not None and plan["q"] != q):
            errors.append(f"{where}: plan is for r={plan['r']} t={plan['t']} "
                          f"q={plan['q']}")
        if r == 1 and n != 8 * t + 8 + 2 * plan["q"]:
            errors.append(f"{where}: order {n} != 8t+8+2q")
        if any(d != 3 for _, d in g.degree()):
            errors.append(f"{where}: not cubic")
        if not nx.is_biconnected(g):
            errors.append(f"{where}: not 2-connected")
        centres = plan["labels"]["centers"]
        if len(centres) != 2 ** r:
            errors.append(f"{where}: {len(centres)} centres, expected {2 ** r}")
        dist = Distances(n, g.edges())
        w = dist.wiener()
        for c in centres:
            if dist.wiener(c) != w:
                errors.append(f"{where}: W(H-{c}) != W(H)")
    return errors


CHECKS = {"census": check_census, "scan": check_scan,
          "catalog": check_catalog, "construct": check_construct}
