"""Vertex-multiplying graph operators that preserve regularity.

Truncation replaces each vertex of a cubic graph with a triangle on its
edge-incidences, keeping the graph cubic while tripling the order.  The
line graph sends an r-regular graph to a (2r-2)-regular one on its edges.
Both are used to turn highly symmetric small graphs into larger regular
graphs with many removable vertices.
"""

from __future__ import annotations

from .core import Graph


def truncate(g: Graph) -> Graph:
    """Triangle-replace every vertex of a cubic graph.

    Corner (v, e) gets index 3*v + rank of e among v's incident edges in
    ascending neighbor order.  Corners of the same vertex form a triangle
    and the two corners of each original edge stay adjacent.
    """
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise ValueError("truncation is defined here for cubic graphs only")
    edges = []
    for v in range(g.n):
        a, b, c = (3 * v, 3 * v + 1, 3 * v + 2)
        edges.extend(((a, b), (a, c), (b, c)))
    for u, v in g.edges():
        ru = g.adj[u].index(v)
        rv = g.adj[v].index(u)
        edges.append((3 * u + ru, 3 * v + rv))
    return Graph(3 * g.n, edges)


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of g, adjacent when they share an endpoint.

    Edge ids follow lexicographic order of the endpoint pairs.
    """
    index = {e: i for i, e in enumerate(g.edges())}
    edges = []
    for v in range(g.n):
        inc = [index[(min(v, u), max(v, u))] for u in g.adj[v]]
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                edges.append((inc[i], inc[j]))
    return Graph(len(index), edges)


def truncation_action(g: Graph, perm):
    """Lift an automorphism of cubic g to the corners of truncate(g).

    Corner 3v+k, the end at v of the edge to adj[v][k], maps to the end at
    perm[v] of the edge to perm[adj[v][k]].
    """
    out = [0] * (3 * g.n)
    for v, nbrs in enumerate(g.adj):
        image = g.adj[perm[v]]
        for k, u in enumerate(nbrs):
            try:
                rank = image.index(perm[u])
            except ValueError:
                raise ValueError(
                    f"not an automorphism: edge ({v},{u}) maps to a non-edge"
                ) from None
            out[3 * v + k] = 3 * perm[v] + rank
    return out


def line_graph_action(g: Graph, perm):
    """Lift an automorphism of g to the vertices of line_graph(g).

    Edge {u,v} maps to edge {perm[u], perm[v]}.
    """
    index = {e: i for i, e in enumerate(g.edges())}
    out = []
    for u, v in g.edges():
        a, b = perm[u], perm[v]
        key = (a, b) if a < b else (b, a)
        if key not in index:
            raise ValueError(
                f"not an automorphism: edge ({u},{v}) maps to non-edge {key}")
        out.append(index[key])
    return out
