"""Exhaustive generation of small connected regular graphs up to isomorphism.

The generator grows adjacency for the smallest unsaturated vertex v with
increasing partner indices and touches fresh vertices in index order;
with no further cut it would emit every such breadth-first labelling from
every start vertex, with any neighbour of the start as vertex 1.  It
skips a partner candidate u whose adjacency mask duplicates that of a
lower vertex up != v: the transposition (up u) is then an automorphism of
the partial graph, so the branch for up already covers the one for u.
That transposition never moves vertex 0 or vertex 1.  At v = 0 nothing is
skipped, since every partner is fresh; at v >= 1, up has u's mask and so
u's degree, so both are unsaturated, differ from v and lie above v.  So
every (class, vertex x, neighbour y of x) still has a leaf that labels x
vertex 0 and y vertex 1.

The search state is two bitmasks next to the adjacency masks: the
unsaturated vertices and the touched ones (vertex 0 and every vertex with
an edge).  Every edge touches v, and a fresh partner is the lowest
untouched vertex, so the touched vertices are always a connected prefix
0..t-1 and hold v.  So v is the lowest unsaturated bit, v's partners are
one mask (unsaturated vertices of 0..t, not next to v, above the last
partner), and the prefix is v's component.  When it holds no unsaturated
vertex yet is not all n, it is a closed proper component, and the branch
is cut there in O(1).  Every leaf is connected.

Two more cuts end dead ends, branches that hold no leaf, so the leaves
reach the filter in the same order.  Every vertex below v is saturated,
and v moves on only once it is saturated, so v's remaining partners lie
above v: unsaturated touched non-neighbours of v, or untouched vertices,
which can be taken one at a time as each becomes the fresh vertex.  So a
new v whose deficit exceeds the count of both is refused at once, before
the second-level cut below pays for its tests.  And after partner u, the
candidates left above u are all that v would have left in the child, bar
one new fresh vertex when u was fresh and the prefix is not yet all n;
when v still needs a partner and has none, u is skipped.  On cubic n = 14
the two cuts take the search from 94,987 nodes to 84,224, on quartic
n = 11 from 213,917 to 170,209.

At a leaf each vertex has an invariant key (BFS level sizes, then sorted
shared-neighbour counts), and the leaf filter drops the leaf when some
vertex's key is below vertex 0's, or when some neighbour of a vertex with
vertex 0's key has a key below vertex 1's.  Some leaf of each class labels
a minimal-key vertex 0 and, next to it, a vertex 1 minimal among the
neighbours of all minimal-key vertices, so no class is lost; ties are
kept.  The recursion cuts a branch early when one of its vertices, with
all its neighbours saturated, already has fewer vertices at distance 2
than vertex 0, or is a neighbour of vertex 0 other than vertex 1 and has
fewer than vertex 1 (saturated from v = 2 on, so its count can only
grow): its key would be the smaller at every leaf of that branch, and the
filter would drop them all.  The cut tests each vertex once per branch,
where v first passes its closed neighbourhood, and the leaf runs it as
v = n before it is queued.  Vertex 0's second level is final once its
neighbours 1..r are saturated, vertex 1's once its neighbours are; from
there each is passed down, not recomputed.

The filter (_leaf_keys) runs in numpy on a batch of queued leaves: one
level-synchronous BFS from every vertex of every leaf at once on uint64
masks, so n is at most 64, one pairwise popcount for the shared counts,
and both rules as comparisons of byte-string key rows.  The generator
queues a copy of each leaf's masks and flushes every _LEAF_BATCH leaves
and once after the search; a flush hands the leaves that pass to the
class store one by one, in the order they were reached, so the store
sees the same sequence as with one leaf per call.

A passing leaf's key rows also hold each vertex's closed-walk counts
(A^k)_vv, k = 3..8, from batched products of its adjacency matrices.
Every vertex's row has the same 2n + 48 bytes: its BFS level sizes,
zero-padded to n, its sorted shared counts, then the six walk counts as
uint64, exact since a closed walk of length 8 has at most 63^7 < 2^64
choices.  The filter reads only the first 2n bytes.  The surviving
leaves reach _ClassStore, which buckets on the sorted rows and runs the
package's one isomorphism test (_isomorphic) against the same-bucket
representatives, mapping a vertex only to one with an equal row, so
every class of connected r-regular graphs on n vertices surfaces exactly
once.  The walk counts keep the buckets nearly pure, so few searches
fail.  The idea, a cheap invariant before the search, is from B. McKay &
A. Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60,
2014.  Classification then counts, per class, how many vertices leave
the Wiener index unchanged when deleted.

The search is split into shards, one per CPU the process may run on
(os.sched_getaffinity; one where that is absent), in the way of the
res/mod split of nauty's geng.  Every root-to-leaf path crosses exactly
one node where v first reaches n // 2.  These nodes are numbered in DFS
order, and shard s searches below node i only when i % shards == s; the
part above them, which every shard runs, is under 1 % of the nodes
(0.25 % on cubic n = 16).  Each shard filters its own leaves into a store
of its own and keeps those that are new there, with their node numbers.
Shards 1.. run in forked children, which send those leaves down a pipe
as uint64 words and exit; the parent runs shard 0, reaps every child,
sorts the leaves by node number, recomputes their key rows and adds them
to one store.  A class's first passing leaf in DFS order is also the
first of its class within its own shard, so the merged store meets it
before any other leaf of its class: the classes, their representatives
and their order are those of one shard, which is the plain search, with
its store as the only one and no fork.
"""

from __future__ import annotations

import os
import signal
import sys
from itertools import chain
from operator import itemgetter

import numpy as np

from .core import Graph, soltes_report

# The largest n per degree whose census row ends in about 10 s; any other
# degree is capped at 12.  The next rows up ran 11-12 s (n = 11 at degree
# 6, n = 12 at degree 9) or past a minute (n = 12 at degrees 5 to 8).
_SCALE_CAPS = {3: 16, 4: 13, 5: 10, 6: 10, 7: 10, 8: 11, 9: 10}


class TableRow:
    """One census row: how many graphs have exactly k removable vertices."""

    __slots__ = ("n", "r", "total", "counts")

    def __init__(self, n, r, total, counts):
        self.n = n
        self.r = r
        self.total = total
        self.counts = dict(counts)
        if sum(self.counts.values()) > total:
            raise ValueError(
                f"counts {self.counts} exceed the row total {total}")

    def __eq__(self, other):
        if not isinstance(other, TableRow):
            return NotImplemented
        return (self.n, self.r, self.total, self.counts) == \
            (other.n, other.r, other.total, other.counts)

    def __repr__(self):
        return (f"TableRow(n={self.n}, r={self.r}, total={self.total}, "
                f"counts={self.counts})")


# Leaves per _leaf_keys call: enough to spread numpy's per-call cost, few
# enough that its (batch, n, n) uint64 temporaries stay near 100 kB at n = 14.
_LEAF_BATCH = 64


def _leaf_keys(leaves):
    """Yield each leaf's key rows, or None when vertex 0 or 1 is not minimal.

    leaves is a list of adjacency-mask lists, all on the same n <= 64
    vertices.  Vertex v's key row is 2n + 48 bytes:
    - its BFS level sizes (vertices at distance 1, 2, ... within its
      component), zero-padded to n bytes;
    - |N(v) ∩ N(u)| over every u, sorted (u = v contributes the degree);
    - its closed-walk counts (A^k)_vv for k = 3..8, big-endian uint64.
    No size or shared count exceeds 63, and a closed walk of length 8 has
    at most Δ^7 <= 63^7 < 2^64 choices, so every field is exact.  The rows
    are isomorphism invariants; they separate most vertices of same-degree
    graphs and most same-degree graphs, which keeps the class store's
    search cheap and its buckets nearly pure.  A leaf that passes comes
    back as its n rows in vertex order, joined into one bytes string.

    A leaf is dropped when some vertex's key (the first 2n bytes of its
    row) is below vertex 0's, or when some neighbour of a vertex whose key
    equals vertex 0's has a key below vertex 1's; either may tie with
    others.  All vertices of all leaves run their BFS together: reach[v]
    gains the reach of each neighbour per level, and a level's size is the
    popcount of what it gains.  The keys compare as byte strings, in the
    order of the tuple (levels, shared): padding is exact, since every
    level size is positive, so a shorter profile that agrees so far
    compares below, as a shorter tuple does.  numpy compares byte strings
    without their trailing zero bytes, which keeps the order of keys of
    one width.  Only the leaves that pass get walk counts.
    """
    n = len(leaves[0])
    masks = np.array(leaves, np.uint64)
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    adj = (masks[:, :, None] & bits).astype(bool)
    reach = np.broadcast_to(bits, masks.shape)
    keys = np.zeros((*masks.shape, 2 * n), np.uint8)
    for depth in range(n):
        nxt = np.bitwise_or.reduce(
            np.where(adj, reach[:, None, :], np.uint64(0)), axis=2)
        size = np.bitwise_count(nxt & ~reach)
        if not size.any():
            break
        keys[..., depth] = size
        reach = reach | nxt
    shared = np.bitwise_count(masks[:, :, None] & masks[:, None, :])
    shared.sort(axis=2)
    keys[..., n:] = shared
    rows = keys.view(f"S{2 * n}")[..., 0]

    def below(ref):
        """Per leaf, the mask of vertices whose key is below vertex ref's."""
        return np.bitwise_or.reduce(
            np.where(rows < rows[:, ref:ref + 1], bits, np.uint64(0)), axis=1)

    bad = below(0)
    if n > 1:
        near = np.bitwise_or.reduce(
            np.where(rows == rows[:, :1], masks, np.uint64(0)), axis=1)
        bad |= near & below(1)
    drop = bad.astype(bool)
    a = adj[~drop].astype(np.uint64)
    walks = a @ a
    counts = []
    for _ in range(6):
        walks = walks @ a
        counts.append(np.diagonal(walks, axis1=1, axis2=2))
    walk_bytes = np.stack(counts, axis=2).astype(">u8").view(np.uint8)
    kept = iter(np.concatenate((keys[~drop], walk_bytes), axis=2))
    for dropped in drop.tolist():
        yield None if dropped else next(kept).tobytes()


def _mask_keys(raw, n, intern):
    """The n key rows in raw, each interned through the shared dict.

    raw is one leaf's rows as _leaf_keys gives them.  Equal rows of
    different leaves come back as one bytes object, which the stored
    entries then share.
    """
    width = len(raw) // n
    return [intern.setdefault(key, key)
            for key in (raw[i:i + width] for i in range(0, len(raw), width))]


def _isomorphic(n, a1, keys1, a2, keys2):
    """An adjacency-preserving bijection from a1 onto a2, or None.

    a1/a2 are neighbour bitmasks, keys per-vertex invariants; a vertex may
    only map to one with an identical key.  The partial map is extended in
    breadth-first order from a start vertex, and one bitmask comparison per
    candidate checks consistency with everything mapped so far.  The
    bijection comes back as an image list (vertex v of a1 goes to image[v]).
    The start is the vertex of a1 with the fewest candidates.
    """
    by_key = {}
    for u, k in enumerate(keys2):
        by_key.setdefault(k, []).append(u)
    cand = [by_key.get(k, ()) for k in keys1]
    start = min(range(n), key=lambda v: len(cand[v]))
    order = [start]
    reached = 1 << start
    k = 0
    while k < len(order):
        f = a1[order[k]] & ~reached
        reached |= f
        while f:
            b = f & -f
            f ^= b
            order.append(b.bit_length() - 1)
        k += 1
    order.extend(v for v in range(n) if not reached >> v & 1)
    image = [-1] * n

    def place(k, used):
        if k == n:
            return True
        v = order[k]
        nimg = 0
        f = a1[v]
        while f:
            b = f & -f
            f ^= b
            w = image[b.bit_length() - 1]
            if w >= 0:
                nimg |= 1 << w
        for u in cand[v]:
            if used >> u & 1:
                continue
            if a2[u] & used == nimg:
                image[v] = u
                if place(k + 1, used | (1 << u)):
                    return True
                image[v] = -1
        return False

    found = place(0, 0)
    # place reaches itself through its closure; breaking that cycle frees
    # the search state on return, not at the next cyclic collection
    del place
    return image if found else None


class _ClassStore:
    """The classes seen so far, one adjacency-mask representative each.

    Representatives are bucketed on their sorted key rows (_mask_keys), so
    a new graph runs _isomorphic only against the same-bucket
    representatives, and maps a vertex only to one with an equal row.
    The rows hold each vertex's closed-walk counts as well as its filter
    key, so a bucket seldom holds two classes (no cubic n = 12 bucket
    does), and few searches fail.  An entry is (masks, keys).
    """

    __slots__ = ("n", "buckets", "intern")

    def __init__(self, n):
        self.n = n
        self.buckets = {}
        self.intern = {}

    def add(self, masks, raw):
        """True, and a copy of masks is stored, when its class is new.

        raw is the leaf's key rows in masks, as _leaf_keys gives them.
        """
        n = self.n
        keys = _mask_keys(raw, n, self.intern)
        bucket = self.buckets.setdefault(tuple(sorted(keys)), [])
        for held_masks, held_keys in bucket:
            if _isomorphic(n, masks, keys, held_masks, held_keys):
                return False
        bucket.append((masks.copy(), keys))
        return True


def _shards():
    """How many shards gen_regular splits its search into: one per CPU that
    this process may run on, or 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _search(n, r, shards, shard):
    """Run the search in shard's subtrees; the leaves new to its own store.

    The subtrees hang from the nodes where v first reaches n // 2, numbered
    in DFS order, and shard owns those whose number is shard modulo shards.
    Every leaf lies in exactly one of them.  Its passing leaves go to a
    store of its own, and each that is new there comes back as (subtree
    number, masks), in DFS order.
    """
    adjm = [0] * n
    store = _ClassStore(n)
    kept = []
    pending = []  # (subtree number, masks) of the queued leaves
    full = (1 << n) - 1
    split = n // 2
    subtree = -1

    def flush():
        """Filter the queued leaves and add the survivors, in leaf order."""
        leaves = [masks for _, masks in pending]
        for leaf, raw in zip(pending, _leaf_keys(leaves)):
            if raw is not None and store.add(leaf[1], raw):
                kept.append(leaf)
        pending.clear()

    def second_level(x):
        """How many vertices are at distance 2 from x."""
        ax = adjm[x]
        reach = 0
        while ax:
            b = ax & -ax
            ax ^= b
            reach |= adjm[b.bit_length() - 1]
        return (reach & ~adjm[x] & ~(1 << x)).bit_count()

    def rec(prev, lo, unsat, touched, s0, s1):
        # s0, s1: vertex 0's and vertex 1's final second levels, or -1
        nonlocal subtree
        v = (unsat & -unsat).bit_length() - 1 if unsat else n
        if v != prev:
            lo = v + 1
            # v's partners lie above v: unsaturated touched non-neighbours,
            # or untouched vertices, taken one at a time as each is fresh
            if v < n and r - adjm[v].bit_count() > (
                    unsat & touched & ~adjm[v] & -(2 << v)).bit_count() \
                    + n - touched.bit_count():
                return
            # 0..v-1 are saturated.  x's second level is final from where
            # v first passes its closed neighbourhood: near holds prev..v-1
            # and their neighbours below v.  The leaf runs this as v = n.
            if v > 1:
                top = 1 << v
                a0 = adjm[0]
                t1 = s1
                near = f = top - (1 << prev)
                while f:
                    b = f & -f
                    f ^= b
                    near |= adjm[b.bit_length() - 1]
                near &= top - 2
                while near:
                    b = near & -near
                    near ^= b
                    x = b.bit_length() - 1
                    if adjm[x] < top:
                        # x's r neighbours lie below v, so 1..r do too
                        if s0 < 0:
                            s0 = second_level(0)
                        sx = second_level(x)
                        if sx < s0:
                            return
                        if x > 1 and a0 >> x & 1:
                            if t1 < 0:
                                t1 = second_level(1)
                            if sx < t1:
                                return
                if adjm[1] < top:
                    s1 = t1
            if prev < split <= v:
                subtree += 1
                if subtree % shards != shard:
                    return
            if v == n:
                pending.append((subtree, adjm.copy()))
                if len(pending) >= _LEAF_BATCH:
                    flush()
                return
        # partners above lo: unsaturated touched vertices and the fresh one
        av = adjm[v]
        vbit = 1 << v
        vsat = av.bit_count() + 1 == r
        cand = unsat & (touched | touched + 1) & ~av & -(1 << lo)
        while cand:
            b = cand & -cand
            cand ^= b
            nt = touched | b
            # cand is what v would have left above u, bar one new fresh
            # vertex when u is fresh: with none, v is stranded
            if not vsat and not cand and (b & touched or nt == full):
                continue
            u = b.bit_length() - 1
            # identical masks make u and the earlier vertex swappable by a
            # transposition automorphism, so that branch already covers
            # this one
            au = adjm[u]
            up = adjm.index(au)
            if up == v:
                up = adjm.index(au, v + 1)
            if up < u:
                continue
            nu = unsat ^ vbit if vsat else unsat
            if au.bit_count() + 1 == r:
                nu ^= b
            # touched is v's component: cut it once closed short of full
            if nu & nt or nt == full:
                adjm[v] = av | b
                adjm[u] = au | vbit
                rec(v, u + 1, nu, nt, s0, s1)
                adjm[v] = av
                adjm[u] = au

    rec(-1, 0, full if r else 0, 1, -1, -1)
    del rec  # the same cycle as place in _isomorphic
    if pending:
        flush()
    return kept


def _send(wfd, n, r, shards, shard):
    """In a forked child: write shard's leaves to the pipe wfd, and exit.

    The pipe carries native uint64 words: the leaf count, then each leaf's
    subtree number and masks.  The exit code is 0 once all are written,
    and 1 after any exception, whose traceback goes to stderr; the child
    never returns into its caller's frames.
    """
    code = 1
    try:
        kept = _search(n, r, shards, shard)
        rows = np.array([[sub, *masks] for sub, masks in kept], np.uint64)
        with open(wfd, "wb") as pipe:
            pipe.write(np.uint64(len(kept)).tobytes() + rows.tobytes())
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def _sharded(n, r, shards):
    """The classes' masks from the search split into shards, in DFS order.

    Shards 1..shards-1 run in forked children; this process runs shard 0,
    reads each child's leaves and reaps it.  A child that exits non-zero
    or sends short data raises RuntimeError, and on any exception the
    children not yet reaped are killed and reaped.  The leaves are then
    merged by subtree number, their key rows recomputed a batch at a time,
    and added to one store.
    """
    children = []  # (pid, read end of its pipe) of each child not reaped
    leaf_bytes = 8 * (n + 1)  # a leaf on a pipe: its subtree and masks
    try:
        for shard in range(1, shards):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _send(wfd, n, r, shards, shard)
            os.close(wfd)
            children.append((pid, open(rfd, "rb")))
        parts = [_search(n, r, shards, 0)]
        for shard in range(1, shards):
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RuntimeError(
                    f"census shard {shard} exited with code {code}")
            words = np.frombuffer(data, np.uint64, len(data) // 8)
            if not words.size or len(data) != 8 + int(words[0]) * leaf_bytes:
                raise RuntimeError(
                    f"census shard {shard} sent {len(data)} bytes, short of "
                    f"its leaves")
            parts.append([(row[0], row[1:]) for row in
                          words[1:].reshape(-1, n + 1).tolist()])
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    leaves = sorted(chain.from_iterable(parts), key=itemgetter(0))
    store = _ClassStore(n)
    found = []
    for start in range(0, len(leaves), _LEAF_BATCH):
        batch = [masks for _, masks in leaves[start:start + _LEAF_BATCH]]
        for masks, raw in zip(batch, _leaf_keys(batch)):
            if store.add(masks, raw):
                found.append(masks)
    return found


def gen_regular(n, r):
    """Yield one representative per class of connected r-regular graphs.

    The search runs in _shards() shards, all but the first in forked
    children that have exited before the first class is yielded.  The
    classes, their representatives and their order do not depend on the
    shard count.
    """
    if r < 0:
        raise ValueError(f"degree r={r} is negative")
    if n <= r:
        raise ValueError("need n > r")
    if n > 64:
        raise ValueError(f"n={n} exceeds 64, the width of a leaf's masks")
    if (n * r) % 2:
        raise ValueError(f"no {r}-regular graph on {n} vertices: odd n*r")
    if r == 0 and n > 1:
        return  # n isolated vertices: no connected graph
    shards = _shards()
    if shards == 1:
        found = [masks for _, masks in _search(n, r, 1, 0)]
    else:
        found = _sharded(n, r, shards)
    # the stores are freed by here, before the caller (classify_table)
    # runs a report on each class
    for masks in found:
        yield Graph._from_adj(tuple(
            tuple(b for b in range(n) if a >> b & 1) for a in masks))


def classify_table(n, r) -> TableRow:
    """Census row over gen_regular(n, r) with per-k removable-vertex counts."""
    cap = _SCALE_CAPS.get(r, 12)
    if n > cap:
        raise ValueError(f"n={n} exceeds the r={r} scale cap of {cap}")
    total = 0
    counts = {}
    for g in gen_regular(n, r):
        total += 1
        k = len(soltes_report(g).soltes_set)
        if k:
            counts[k] = counts.get(k, 0) + 1
    return TableRow(n, r, total, counts)
