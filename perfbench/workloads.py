"""Seeded inputs for the four workloads, made outside the measured process.

make(name, seed, workdir, src) returns a spec: the CLI argument lists of
one round (`calls`), whether the census graphs are captured, whether the
times are scaled to the reference speed (speed.py: census and construct,
which run in the interpreter on one core), and what the checks need to
know about the inputs (`expect`).  The same seed gives the
same inputs.  Sizes are fixed per workload and only the structure drawn
from the seed varies, so the work per round hardly depends on the seed.
"""

from __future__ import annotations

import random

import networkx as nx

# Terms of OEIS A002851 (connected cubic) and A006820 (connected quartic)
# for the census rows here and in SMALL.
OEIS = {(10, 3): 19, (14, 3): 509, (8, 4): 6, (11, 4): 265}

CENSUS_ROWS = ((14, 3), (11, 4))

# Orders of the connected random graphs in the scan stream.  Both sides of
# core._DENSE_MIN_N = 64 are covered, with 63/64/65 at the crossover.
SCAN_CUBIC = (16, 20, 24, 30, 36, 44, 52, 60, 62, 64, 66, 76, 96, 128, 170,
              230, 300)
SCAN_QUARTIC = (16, 21, 27, 33, 45, 57, 63, 64, 65, 80, 110, 150, 210, 290)
SCAN_DENSE = (40, 70, 100)

# Catalog entries: name -> (group order, transform).
CATALOG = {"CVT(324,104)": (324, "line_graph"),
           "CVT(384,805)": (384, "truncation")}

# (r, t, q) of the construct sweep; q None is the CLI default.  r=1 runs at
# both ends of q_range(t): q = lo is the longest modify walk, q = hi the
# largest graph.  The ends are pinned here, not asked of the program under
# test.  r=2 and r=3 take the smallest feasible q.
CONSTRUCT_LO = {3: 9, 4: 17, 5: 27, 6: 38, 7: 50, 8: 64, 9: 78, 10: 94,
                11: 110, 12: 128}
CONSTRUCT_HI = {4: 21, 5: 38, 6: 59, 7: 85, 8: 116, 9: 152, 10: 192, 11: 238}
CONSTRUCT = (
    [(1, t, q) for t, q in CONSTRUCT_LO.items()]
    + [(1, t, q) for t, q in CONSTRUCT_HI.items()]
    + [(2, t, None) for t in (4, 6, 8, 10, 12)]
    + [(3, t, None) for t in (6, 8, 10, 12)])

# Small variants used by checkcheck.py to exercise the checkers quickly.
SMALL = {
    "census": ((10, 3), (8, 4)),
    "scan": ((16, 30, 64), (21, 65), (40,)),
    "catalog": ("CVT(324,104)",),
    "construct": [(1, 3, 9), (1, 4, 21), (2, 4, None)],
}


def graph(n, edges):
    """networkx graph on vertices 0..n-1 in order."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _graph6(n, edges):
    return nx.to_graph6_bytes(graph(n, edges), header=False).decode("ascii").strip()


def _connected(make, rng):
    while True:
        g = make(rng.randrange(2 ** 32))
        if nx.is_connected(g):
            return sorted(tuple(sorted(e)) for e in g.edges())


def _relabel(n, edges, marked, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return ([(perm[u], perm[v]) for u, v in edges],
            sorted(perm[v] for v in marked))


def _known_answers(rng, src):
    """C_11 (every vertex), W_8 (the hub) and two constructions (u1, u2)."""
    import sys
    if src not in sys.path:
        sys.path.insert(0, src)
    from soltes.builder import build_many_soltes, build_two_soltes

    out = [("C_11", 11, [(i, (i + 1) % 11) for i in range(11)],
            list(range(11)))]
    rim = [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)]
    out.append(("W_8", 8, rim, [0]))
    for label, (h, plan) in (("build_two_soltes(3)", build_two_soltes(3)),
                             ("build_two_soltes(4,17)", build_two_soltes(4, 17)),
                             ("build_many_soltes(4,2)", build_many_soltes(4, 2))):
        marked = [plan.labels["u1"], plan.labels["u2"]]
        out.append((label, h.n, list(h.edges()), marked))
    return [(label, n) + _relabel(n, edges, marked, rng)
            for label, n, edges, marked in out]


def _scan_stream(seed, src, small=False):
    rng = random.Random(seed)
    cubic, quartic, dense = SMALL["scan"] if small else (
        SCAN_CUBIC, SCAN_QUARTIC, SCAN_DENSE)
    graphs = []
    for d, sizes in ((3, cubic), (4, quartic)):
        for n in sizes:
            edges = _connected(
                lambda s, d=d, n=n: nx.random_regular_graph(d, n, seed=s), rng)
            graphs.append((f"random {d}-regular", n, edges, []))
    for n in dense:
        edges = _connected(lambda s, n=n: nx.gnp_random_graph(n, 0.5, seed=s),
                           rng)
        graphs.append(("dense G(n,1/2)", n, edges, []))
    graphs += _known_answers(rng, src)
    rng.shuffle(graphs)
    return [{"label": label, "n": n, "graph6": _graph6(n, edges),
             "must_include": marked}
            for label, n, edges, marked in graphs]


def make(name, seed, workdir, src, small=False):
    """The spec of one run of workload name (see the module docstring)."""
    rng = random.Random(seed)
    if name == "census":
        rows = SMALL["census"] if small else CENSUS_ROWS
        calls = [["tables", "--n", str(n), "--r", str(r)] for n, r in rows]
        return {"calls": calls, "capture": True, "scaled": True,
                "expect": {"rows": [list(row) for row in rows]}}
    if name == "scan":
        stream = _scan_stream(seed, src, small)
        path = f"{workdir}/scan.g6"
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(g["graph6"] + "\n" for g in stream))
        return {"calls": [["soltes", path]], "capture": False, "scaled": False,
                "expect": {"stream": stream}}
    if name == "catalog":
        entries = list(SMALL["catalog"] if small else CATALOG)
        rng.shuffle(entries)
        return {"calls": [["cayley", "--entry", e] for e in entries],
                "capture": False, "scaled": False, "expect": {"entries": entries}}
    if name == "construct":
        builds = list(SMALL["construct"] if small else CONSTRUCT)
        rng.shuffle(builds)
        calls = []
        for r, t, q in builds:
            argv = ["construct", "--t", str(t), "--r", str(r)]
            if q is not None:
                argv += ["--q", str(q)]
            calls.append(argv)
        return {"calls": calls, "capture": False, "scaled": True,
                "expect": {"builds": [list(b) for b in builds]}}
    raise ValueError(f"unknown workload {name!r}")
