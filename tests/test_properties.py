"""Property tests: the masked deletion against a plain-BFS oracle, and the
layer-sequence modify walk against its closed-form ends.

Examples are derandomized, so every run draws the same graphs.
"""

import random

import pytest

from soltes.core import (INFINITE, Graph, _bfs_raw, _wieners, delete_vertex,
                         soltes_report, wiener)
from soltes.plan import (SequenceExhausted, check_layers, d_max, d_min, d_of,
                         enumerate_chain, modify, sequence_for,
                         short_sequence)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=120)


def bfs_wiener(g):
    """W(g) from one plain BFS per source; INFINITE across components."""
    total = 0
    for src in range(g.n):
        dist = _bfs_raw(g.adj, g.n, src)
        if min(dist) < 0:
            return INFINITE
        total += sum(dist)
    return total // 2


def block(rng, lo, size, p):
    """Edges of a connected graph on lo..lo+size-1: a path plus chords."""
    edges = [(lo + i, lo + i + 1) for i in range(size - 1)]
    edges += [(lo + i, lo + j) for i in range(size)
              for j in range(i + 2, size) if rng.random() < p]
    return edges


@st.composite
def graphs(draw):
    """Random graphs of order 1..41 at any density, or two connected blocks
    either apart ("split") or both joined to one hub, a cut vertex ("cut").
    """
    kind = draw(st.sampled_from(("random", "split", "cut")))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.sampled_from((0.0, 0.05, 0.15, 0.4, 0.7, 1.0)))
    if kind == "random":
        n = draw(st.integers(1, 40))
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p])
    a = draw(st.integers(1, 20))
    b = draw(st.integers(1, 20))
    edges = block(rng, 0, a, p) + block(rng, a, b, p)
    if kind == "split":
        return Graph(a + b, edges)
    hub = a + b
    edges += [(rng.randrange(a), hub), (a + rng.randrange(b), hub)]
    return Graph(a + b + 1, edges)


@SETTINGS
@hypothesis.given(graphs())
def test_masked_deletion_matches_bfs_oracle(g):
    want = [bfs_wiener(delete_vertex(g, v)) for v in range(g.n)]
    assert [_wieners(g, [v])[0] for v in range(g.n)] == want
    w = bfs_wiener(g)
    assert wiener(g) == w
    if w is INFINITE:
        with pytest.raises(ValueError):
            soltes_report(g)
        return
    report = soltes_report(g)
    assert list(report.per_vertex) == want
    assert report.soltes_set == tuple(v for v in range(g.n) if want[v] == w)


def test_strategy_reaches_every_case():
    # the cases the property must see: G - v on both sides of order 16
    # (once the BFS/sweep crossover), dense graphs on both sides, cut
    # vertices, disconnected G
    seen = set()

    @SETTINGS
    @hypothesis.given(graphs())
    def record(g):
        order = g.n - 1
        side = "sweep" if order >= 16 else "bfs"
        seen.add(side)
        if g.n > 2 and 2 * g.m > 0.5 * g.n * (g.n - 1):
            seen.add("dense " + side)
        w = bfs_wiener(g)
        seen.add("disconnected" if w is INFINITE else "connected")
        if w is not INFINITE and any(bfs_wiener(delete_vertex(g, v))
                                     is INFINITE for v in range(g.n)):
            seen.add("cut vertex")

    record()
    assert seen == {"sweep", "bfs", "dense sweep", "dense bfs",
                    "disconnected", "connected", "cut vertex"}


@SETTINGS
@hypothesis.given(st.integers(1, 40), st.integers(1, 30), st.data())
def test_modify_walk_steps_one_unit_from_short_to_long(q, t, data):
    delta = 3 * t + 3
    chain = list(enumerate_chain(q))
    assert chain[0] == short_sequence(q) and chain[-1] == (2,) * q
    assert d_of(chain[0], delta) == d_min(q, delta)
    assert d_of(chain[-1], delta) == d_max(q, delta)
    for a, b in zip(chain, chain[1:]):
        step = modify(a)
        assert step == b
        # re-check every layer condition, and the total 2q
        assert check_layers(step) == step and sum(step) == 2 * q
        assert d_of(step, delta) == d_of(a, delta) + 1
    with pytest.raises(SequenceExhausted):
        modify(chain[-1])
    D = data.draw(st.integers(d_min(q, delta), d_max(q, delta)), label="D")
    assert sequence_for(D, q, delta) == chain[D - d_min(q, delta)]
