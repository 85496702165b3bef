"""Machine speed from a fixed reference loop, to scale measured times.

On a shared host the same pure-Python work runs up to a third slower for a
minute or more at a time (measured here: a fixed loop took 80 ms a call
for a minute, then 105 ms for the next), so runs of an unchanged program
differ by more than any useful regression bound.  In the workloads that
run in the interpreter on one core (census, construct) each stretch of CLI
calls is therefore bracketed by speed readings, and its wall and CPU time
are multiplied by REFERENCE_S / (mean of the two readings): the time it
would have taken at the speed where the loop takes REFERENCE_S.

scan and catalog spend their time in the CLI's two-thread pool around
numpy's packed sweep.  Their time moves less with the interpreter's speed,
and scaling them by this single-thread reading widened their run-to-run
spread on every set of runs tried, so they are reported as measured.
Set-up time is not scaled either.  The choice is fixed per workload, not
taken from how a run behaves, so the parent commit and a change are
always measured the same way.  Raw times go to stderr.

The loop does the kinds of work the program does (breadth-first search
over lists, big-integer bit masks, tuple sorting, dict lookups) and uses
nothing from soltes, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import time

# Median reading on the development machine (2 vCPU, Python 3.11).
REFERENCE_S = 0.021
READING_S = 1.0


def _graph():
    rng = random.Random(20230321)
    n = 600
    adj = [[] for _ in range(n)]
    for v in range(n):
        for u in rng.sample(range(n), 3):
            if u != v:
                adj[v].append(u)
                adj[u].append(v)
    masks = [sum(1 << u for u in row) for row in adj]
    return adj, masks


_ADJ, _MASKS = _graph()


def _loop():
    adj, masks = _ADJ, _MASKS
    n = len(adj)
    total = 0
    for src in range(0, n, 80):
        dist = [-1] * n
        dist[src] = 0
        queue = [src]
        for u in queue:
            du = dist[u] + 1
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du
                    queue.append(w)
        total += sum(dist)
    seen = {}
    for v in range(0, n, 6):
        reach = frontier = 1 << v
        levels = []
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= masks[b.bit_length() - 1]
            frontier = nxt & ~reach
            reach |= frontier
            levels.append(frontier.bit_count())
        key = tuple(sorted(levels))
        seen[key] = seen.get(key, 0) + 1
    return total + len(seen)


def point():
    """Mean seconds per reference loop over READING_S: one speed reading.

    A mean over half a second, not the median of a few short loops: the
    calls being scaled feel every slow stretch, and short readings scatter
    by a fifth from one to the next.
    """
    loops = 0
    t0 = time.perf_counter()
    while True:
        _loop()
        loops += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= READING_S:
            return elapsed / loops


def scale(before, after):
    """Factor that turns a time measured between two readings into
    reference-speed time."""
    return REFERENCE_S / ((before + after) / 2)
