"""Assemble cubic 2-connected graphs whose deletion gap is cancelled exactly.

Starting from a double-chain base, two trees are grown from the leaves v1
and v2 with prescribed level sizes, then inter-level (red) and same-level
(blue) edges complete every vertex to degree three.  The level sizes are
chosen so the attachment's weighted distance total equals the base's
deletion gap, measured on the base by brute force, which makes every chain
center removable without changing the Wiener index.  verify_construction
checks that by brute force on one center per orbit of the base's chain
swaps and mirror, each checked as an automorphism of the build.
build_many_soltes is the one builder; build_two_soltes is its r = 1 case,
the plain ring with its two centers.  A ConstructionPlan holds one build's
working graph from its creation on; realize_trees, place_red_edges,
place_blue_edges and assemble run on it in that order.
"""

from __future__ import annotations

from .core import (INFINITE, Graph, _bfs_raw, _check_automorphism, _wieners,
                   _wieners_by_orbit, is_biconnected)
from .families import LabeledGraph, g_t_r
from .plan import ConstructionError, check_layers, feasible_q, sequence_for


class ConstructionPlan:
    """One build: its trees, red/blue edges and contraction, and the working
    graph that the phases grow: its adjacency, whose sizes give every
    vertex's free valency 3 - degree, and the tree vertices with a child.

    A final layer of one is built as three vertices, the last three ids,
    which assemble contracts into one.
    """

    def __init__(self, base: LabeledGraph, t, delta, layers):
        self.layers = check_layers(layers)
        self.q = sum(self.layers) // 2
        layers = list(self.layers)
        contract = layers[-1] == 1
        if contract:
            if len(layers) < 2 or layers[-2] < 3:
                raise ValueError("a final layer of 1 needs at least 3 above it")
            layers[-1] = 3
        end = base.graph.n + sum(layers)
        v1, v2 = base["v1"], base["v2"]
        self.base = base
        self.t = t
        self.delta = delta
        self.build_layers = tuple(layers)
        self.expected_order = base.graph.n + 2 * self.q
        self.contraction = tuple(range(end - 3, end)) if contract else None
        self.tree_parents = {}
        self.red_edges = []
        self.blue_edges = []
        self.levels = [([v1], [v2])]
        self._adj = [set(nbrs) for nbrs in base.graph.adj]
        self._children = set()

    @property
    def labels(self):
        return self.base.labels

    def to_dict(self):
        """The plan as json.dumps takes it; r is read off the 2^r centers."""
        return {
            "t": self.t,
            "r": len(self.labels["centers"]).bit_length() - 1,
            "q": self.q,
            "delta": self.delta,
            "layers": self.layers,
            "order": self.expected_order,
            "tree_parents": sorted((v, *rest)
                                   for v, rest in self.tree_parents.items()),
            "red_edges": self.red_edges,
            "blue_edges": self.blue_edges,
            "contraction": self.contraction,
            "labels": self.labels,
        }


def _free(plan, v):
    return 3 - len(plan._adj[v])


def _add_edge(plan, a, b):
    if a == b or b in plan._adj[a]:
        raise ConstructionError(f"parallel edge ({a},{b})")
    plan._adj[a].add(b)
    plan._adj[b].add(a)
    if _free(plan, a) < 0 or _free(plan, b) < 0:
        raise ConstructionError(f"degree overflow at ({a},{b})")


def _add_blue(plan, a, b):
    _add_edge(plan, a, b)
    plan.blue_edges.append((a, b))


def realize_trees(base: LabeledGraph, t, delta, layers) -> ConstructionPlan:
    """Grow the two level trees from v1 and v2 (phase one of three).

    Level counts split as ceil/floor between the trees; children go one per
    parent first, then the earliest parents take a second child, which keeps
    the per-level number of degree-3 tree vertices minimal.
    """
    plan = ConstructionPlan(base, t, delta, layers)
    for i, l in enumerate(plan.build_layers, start=1):
        counts = ((l + 1) // 2, l // 2)
        row = ([], [])
        for tr in (0, 1):
            parents = plan.levels[i - 1][tr]
            need = counts[tr]
            if need > 2 * len(parents):
                raise ValueError(
                    f"level {i}: {need} vertices cannot hang under "
                    f"{len(parents)} parents")
            single = min(need, len(parents))
            for p in parents[:single] + parents[:need - single]:
                v = len(plan._adj)
                plan._adj.append(set())
                plan.tree_parents[v] = (p, i, tr + 1)
                row[tr].append(v)
                plan._children.add(p)
                _add_edge(plan, p, v)
        plan.levels.append(row)
    return plan


def _level_leaves(plan, i):
    t1, t2 = plan.levels[i]
    return ([v for v in t1 if v not in plan._children],
            [v for v in t2 if v not in plan._children])


def _first_free_nonleaf(plan, row):
    for v in row:
        if v in plan._children and _free(plan, v) > 0:
            return v
    return None


def _red_options(plan, i, side):
    """Candidate endpoints at level i for a red edge, preference-ordered.

    side is "down" when the edge continues to level i+1 and "up" when it
    arrives from level i-1.  Leaves are spent on red edges when there are
    at most two of them and shielded when a same-level cycle will need
    them; the blue anchors of the sparse-leaf cases stay protected.
    """
    t1, t2 = plan.levels[i]
    leaves1, leaves2 = _level_leaves(plan, i)
    leaves = leaves1 + leaves2
    pref = []
    protected = set()
    if len(leaves) >= 3:
        protected = set(leaves)
        b1 = _first_free_nonleaf(plan, t1)
        b2 = _first_free_nonleaf(plan, t2)
        pref = [b1, b2] if side == "down" else [b2, b1]
    elif len(leaves) == 2 and leaves1 and leaves2:
        a1, a2 = leaves1[0], leaves2[0]
        for row in (t1, t2):
            b = _first_free_nonleaf(plan, row)
            if b is not None:
                protected.add(b)
        pref = [a1, a2] if side == "down" else [a2, a1]
    elif len(leaves) == 1:
        a = leaves[0]
        own, other = (t1, t2) if leaves1 else (t2, t1)
        b_same = _first_free_nonleaf(plan, own)
        b_other = _first_free_nonleaf(plan, other)
        if b_other is not None:
            protected.add(b_other)
        pref = [b_same, a] if side == "down" else [a, b_same]
    pref = [v for v in pref if v is not None]
    rest = [v for v in t1 + t2 if v not in protected and v not in pref]
    return pref + rest


def place_red_edges(plan: ConstructionPlan) -> ConstructionPlan:
    """Add one inter-level edge below every odd cumulative level count."""
    prefix = 2
    for i, l in enumerate(plan.build_layers, start=1):
        prefix += l
        if prefix % 2 == 0:
            continue
        up = _red_options(plan, i, "up")
        for x in _red_options(plan, i - 1, "down"):
            if _free(plan, x) < 1:
                continue
            y = next((y for y in up
                      if _free(plan, y) > 0 and x not in plan._adj[y]), None)
            if y is not None:
                _add_edge(plan, x, y)
                plan.red_edges.append((x, y))
                break
        else:
            raise ConstructionError(
                f"no red edge placement between levels {i - 1} and {i}")
    return plan


def _interleave(a, b):
    out = []
    for x, y in zip(a, b):
        out.extend((x, y))
    shorter = min(len(a), len(b))
    out.extend(a[shorter:] or b[shorter:])
    return out


def _pool_match(plan, vertices):
    while True:
        live = [v for v in vertices if _free(plan, v) > 0]
        if not live:
            return
        v = live[0]
        partner = next((u for u in live[1:] if u not in plan._adj[v]), None)
        if partner is None:
            raise ConstructionError(f"blue matching stuck at vertex {v}")
        _add_blue(plan, v, partner)


def _blue_interior(plan, i):
    t1, t2 = plan.levels[i]
    leaves1, leaves2 = _level_leaves(plan, i)
    if i < len(plan.levels) - 1 and abs(len(leaves1) - len(leaves2)) > 1:
        raise ConstructionError(f"leaf skew at level {i}")
    leaves = leaves1 + leaves2

    def anchor(a, target_row):
        b = _first_free_nonleaf(plan, target_row)
        if b is not None and _free(plan, a) > 0 and b not in plan._adj[a]:
            _add_blue(plan, a, b)

    if len(leaves) >= 3:
        _blue_cycle(plan, leaves1, leaves2)
    elif len(leaves) == 2 and leaves1 and leaves2:
        anchor(leaves1[0], t2)
        anchor(leaves2[0], t1)
    elif len(leaves) == 1:
        other = t2 if leaves1 else t1
        anchor(leaves[0], other)

    parity = sum(_free(plan, v) for v in t1 + t2)
    if parity % 2:
        raise ConstructionError(f"odd free valency total at level {i}")
    _pool_match(plan, t1 + t2)


def _blue_cycle(plan, a, b):
    """Close the vertices of a and b, interleaved, into one blue cycle."""
    order = _interleave(a, b)
    if len(order) < 3:
        raise ConstructionError(f"a blue cycle needs >= 3 vertices, got {order}")
    for v in order:
        if _free(plan, v) != 2:
            raise ConstructionError(f"cycle vertex {v} lost valency")
    for x, y in zip(order, order[1:] + order[:1]):
        _add_blue(plan, x, y)


def _blue_joint_tail(plan):
    """Close a final layer of two together with the layer above it."""
    (y1,), (y2,) = plan.levels[-1][0], plan.levels[-1][1]
    up1, up2 = plan.levels[-2]
    w1 = plan.tree_parents[y1][0]
    w2 = plan.tree_parents[y2][0]
    leaves = [v for v in up1 + up2 if v not in plan._children]
    if not leaves:
        pairs = [(w1, y2), (w2, y1), (y1, y2)]
    else:
        x = leaves[0]
        chain = [w1] + leaves[1:] + [w2]
        pairs = [(x, y1), (x, y2), (y1, y2), *zip(chain, chain[1:])]
    for a, b in pairs:
        _add_blue(plan, a, b)
    for v in list(up1) + list(up2) + [y1, y2]:
        if _free(plan, v):
            raise ConstructionError(f"unfilled valency at {v} in tail closure")


def place_blue_edges(plan: ConstructionPlan) -> ConstructionPlan:
    """Complete every vertex to degree three with same-level edges."""
    d = len(plan.build_layers)
    joint = plan.build_layers[-1] == 2
    last_interior = d - 2 if joint else d - 1
    for i in range(last_interior + 1):
        _blue_interior(plan, i)
    if joint:
        _blue_joint_tail(plan)
    else:
        _blue_cycle(plan, *plan.levels[-1])
    return plan


def assemble(plan: ConstructionPlan) -> Graph:
    """Materialize the plan as a Graph, applying the final contraction.

    The contraction triple, the last three ids, merges into the first of
    them; its triangle's three edges become loops and drop out.
    """
    n = len(plan._adj)
    edges = [(a, b) for a in range(n) for b in plan._adj[a] if a < b]
    if plan.contraction:
        triple = plan.levels[-1][0] + plan.levels[-1][1]
        if tuple(triple) != plan.contraction:
            raise ConstructionError(f"last level {triple} is not the "
                                    f"contraction triple {plan.contraction}")
        parents = {plan.tree_parents[v][0] for v in triple}
        if len(parents) != 3:
            raise ConstructionError("contraction triple shares a parent")
        plan.levels[-1] = ([n - 3], [])
        n -= 2
        merged = [(min(a, n - 1), min(b, n - 1)) for a, b in edges]
        edges = [(a, b) for a, b in merged if a != b]
    h = Graph(n, edges)
    if h.m != len(edges):
        raise ConstructionError("duplicate edge slipped into the build")
    if h.n != plan.expected_order:
        raise ConstructionError(
            f"built {h.n} vertices, the plan expects {plan.expected_order}")
    if any(h.degree(v) != 3 for v in range(h.n)):
        raise ConstructionError("not cubic")
    return h


def _build(base, t, delta, layers):
    plan = realize_trees(base, t, delta, layers)
    place_red_edges(plan)
    place_blue_edges(plan)
    h = assemble(plan)
    return h, plan


def build_two_soltes(t, q=None):
    """Cubic 2-connected graph whose two ring centers are removable.

    Removable means deleting the vertex keeps the Wiener index.  This is
    build_many_soltes at r = 1.
    """
    return build_many_soltes(t, 1, q)


def build_many_soltes(t, r, q=None):
    """Cubic 2-connected graph where all 2^r chain centers are removable.

    The deletion gap is measured on the fanned base by brute force, at every
    r.  Raises Infeasible naming the gap when no attachment size fits it,
    and ValueError when q lies outside the sizes that do.
    """
    if t < 1 or r < 1:
        raise ValueError("build_many_soltes needs t >= 1 and r >= 1")
    base = g_t_r(t, r)
    delta = _bfs_raw(base.graph.adj, base.graph.n, base["v1"])[base["u1"]]
    w0, w1 = _wieners(base.graph, [None, base["u1"]])
    gap = w1 - w0
    lo, hi = feasible_q(gap, delta, t, r)
    if q is None:
        q = lo
    elif not lo <= q <= hi:
        raise ValueError(f"gap {gap} needs q in [{lo}, {hi}], got {q}")
    return _build(base, t, delta, sequence_for(gap, q, delta))


def verify_construction(h: Graph, plan: ConstructionPlan) -> dict:
    """Aggregate postcondition checks for a finished build.

    W(h - c) is brute force on one center c per orbit of the base's chain
    swaps and mirror, each checked as an automorphism of h, and copied to
    the rest of its orbit: 2 sweep slices at every r, as the centers form
    one orbit.
    """
    base = plan.base
    # -1 marks a vertex the BFS did not reach, which fails the layering
    d_v1 = _bfs_raw(h.adj, h.n, base["v1"])
    d_v2 = _bfs_raw(h.adj, h.n, base["v2"])
    layering = all(min(d_v1[v], d_v2[v]) == i
                   for i, (t1, t2) in enumerate(plan.levels) for v in t1 + t2)
    # the attachment and the contraction only append ids, so each base
    # automorphism extends to h as the identity on them; one that is not an
    # automorphism of h (a build altered after assembly) is left out
    tail = tuple(range(base.graph.n, h.n))
    perms = []
    for perm in base.automorphisms:
        perm += tail
        try:
            _check_automorphism(h, perm)
        except ValueError:
            continue
        perms.append(perm)
    centers = base["centers"]
    w, values = _wieners_by_orbit(h, perms, centers)
    per_center = dict(zip(centers, values))
    w_u1 = per_center[base["u1"]]
    # INFINITE refuses arithmetic: a disconnected h or h - u1 has no gap
    finite = w is not INFINITE and w_u1 is not INFINITE
    report = {
        "order": h.n == plan.expected_order,
        "regular": all(h.degree(v) == 3 for v in range(h.n)),
        "biconnected": is_biconnected(h),
        "layering": layering,
        "centers": {c: w is not INFINITE and per_center[c] == w
                    for c in centers},
        "wiener_gap": w - w_u1 if finite else INFINITE,
    }
    report["ok"] = (report["order"] and report["regular"]
                    and report["biconnected"] and report["layering"]
                    and all(report["centers"].values()))
    return report
