"""Closed forms and layer-sequence calculus for the tree-attachment plans.

A layer sequence (l_1, ..., l_d) prescribes how many attached vertices sit
at each distance i from the two attachment leaves.  The weighted total
d_of(L) = sum (delta + i) * l_i is the amount the attachment adds to the
deletion gap, so hitting a target gap means finding a sequence with the
right weighted total; the modify step walks the whole range one unit at a
time, from the binary-tree-like profile up to the all-twos chain.  One
generator owns that walk: enumerate_chain yields every sequence on it, and
sequence_for enters it late.  The walk's states of each length d end at a
phase end, the state just before it appends layer d + 1: the
lexicographically largest valid sequence of length d summing to 2q in
which only the last index qualifies for the modify step, that is, a run of
twos and then a tail of O(log q) layers rising at least as fast as 3, 4, 5,
7, 11, ...  sequence_for bisects the phase ends for the last one at or
below its target and walks only the steps left from there.
"""

from __future__ import annotations

from itertools import islice


class ConstructionError(Exception):
    """A construction or plan invariant failed: the program is at fault.

    Not a ValueError, which the command line reads as bad input (exit 2).
    """


class SequenceExhausted(Exception):
    """modify() found no applicable index (the all-twos profile is terminal)."""


class Infeasible(ValueError):
    """No attachment size q fits the deletion gap (the CLI exits 1)."""


def check_layers(layers):
    """layers as a tuple, once it meets the growth and cap conditions.

    With d = len(layers): sum is even (2q); 2 <= l_i <= 2^(i+1) for i < d;
    1 <= l_d <= 2^(d+1); and l_{i+1} <= 2 * l_i.  Raises ValueError naming
    the first condition that fails.
    """
    layers = tuple(int(x) for x in layers)
    if not layers:
        raise ValueError("layer sequence must be non-empty")
    total = sum(layers)
    if total % 2:
        raise ValueError(f"layer counts sum to odd total {total}")
    _check_span(layers, 0, len(layers))
    return layers


def _check_span(layers, lo, hi):
    """check_layers' cap and doubling conditions at the 0-based indices
    lo..hi-1 of layers (those that exist), doubling read into the next."""
    d = len(layers)
    for j in range(lo, min(hi, d)):
        l = layers[j]
        least = 1 if j == d - 1 else 2
        if not (least <= l <= 1 << (j + 2)):
            raise ValueError(
                f"layer {j + 1} count {l} outside [{least}, {1 << (j + 2)}]")
        if j + 1 < d and layers[j + 1] > 2 * l:
            raise ValueError(f"layer {j + 2} grows faster than doubling "
                             f"({layers[j + 1]} > 2*{l})")


def tree_depth(q):
    """floor(log2(2q + 3)); depth parameter of the densest profile for q."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return (2 * q + 3).bit_length() - 1


def f_poly(t):
    """Deletion gap of the bare double-chain construction: 16t^3-8t^2-26t-14."""
    if t < 1:
        raise ValueError("t must be at least 1")
    return ((16 * t - 8) * t - 26) * t - 14


def d_of(layers, delta):
    return sum((delta + i) * l for i, l in enumerate(layers, start=1))


def short_sequence(q):
    """Densest profile: full binary growth, remainder in the last layer."""
    a = tree_depth(q)
    layers = [2 ** (i + 1) for i in range(1, a - 1)]
    layers.append(2 * q - 2 ** a + 4)
    return check_layers(layers)


def d_min(q, delta):
    a = tree_depth(q)
    return 2 * q * (delta + a - 1) - 2 ** (a + 1) + 4 * a


def d_max(q, delta):
    return 2 * q * delta + q * q + q


def feasible_q(gap, delta, t, r):
    """(lo, hi): the ends of the q whose [d_min, d_max] window holds gap.

    d_min grows with q, so no q past the first with d_min(q) > gap fits.
    Raises Infeasible naming the gap, t and r when no q does.
    """
    lo = hi = None
    q = 1
    while d_min(q, delta) <= gap:
        if gap <= d_max(q, delta):
            # d_max grows with q too, so the hits are one interval
            if lo is None:
                lo = q
            elif hi != q - 1:
                raise ConstructionError(f"feasible q for gap {gap} are "
                                        f"not an interval: {hi}, then {q}")
            hi = q
        q += 1
    if lo is None:
        where = f"infeasible: gap {gap} at t={t}, r={r}"
        if q == 1:
            raise Infeasible(f"{where} is below d_min(1) = {d_min(1, delta)}")
        raise Infeasible(f"{where} fits no q in [1, {q - 1}]")
    return lo, hi


def q_range(t):
    """Smallest and largest q whose [d_min, d_max] window contains f_poly(t),
    the r = 1 gap, at its distance delta = 3t + 3."""
    return feasible_q(f_poly(t), 3 * t + 3, t, 1)


def _modify_step(layers, start=0):
    """Apply the modify rule to a list of layer counts in place.

    The chosen index is the smallest i with l_i >= 3 and either
    2(l_i - 1) > l_{i+1} + 1 or l_i = l_{i+1} = 3, reading l_{d+1} = 0.
    The search begins at start, for callers that know no smaller index
    qualifies.  Returns the chosen index, or -1, leaving layers unchanged,
    when no index qualifies.
    """
    d = len(layers)
    for i in range(start, d):
        li = layers[i]
        nxt = layers[i + 1] if i + 1 < d else 0
        if li >= 3 and (2 * (li - 1) > nxt + 1 or (li == 3 and nxt == 3)):
            layers[i] -= 1
            if i + 1 < d:
                layers[i + 1] += 1
            else:
                layers.append(1)
            return i
    return -1


def modify(layers):
    """Move one unit of layer mass one level deeper (see _modify_step).

    Raises SequenceExhausted when no index qualifies.
    """
    layers = list(layers)
    if _modify_step(layers) < 0:
        raise SequenceExhausted(str(tuple(layers)))
    return check_layers(layers)


def _walk(q, layers=None):
    """The modify walk from layers, or short_sequence(q), to exhaustion.

    Yields one layer list, changed in place: first as the start sequence,
    then after every step.  Every state is checked (ValueError if one
    fails): the start in full, each later state at the indices i - 1 ..
    i + 2 around the step at i, the only ones whose conditions the step
    can change.  The step keeps the sum, and a layer it appends is i + 1.
    """
    layers = list(check_layers(layers or short_sequence(q)))
    yield layers
    start = 0
    while (i := _modify_step(layers, start)) >= 0:
        # the step changed only l_i and l_{i+1}, so the conditions at the
        # indices below i - 1 are unchanged, and none of them qualified
        start = max(i - 1, 0)
        _check_span(layers, start, i + 3)
        yield layers


def _phase_end(q, d):
    """The walk's last state of length d, for len(short_sequence(q)) <= d < q.

    Its tail rises at least as fast as 3, 4, 5, 7, 11, ... (l -> 2l - 3)
    and at most doubles, so the r layers after one of l can total anything
    from 3r + max(2l - 6, 1)(2^r - 1) to 2l(2^r - 1).  The tail is the
    longest whose least total fits in 2q beside the twos; then each layer is
    the largest that leaves the layers after it a total they can take.
    """
    tail = 1
    while tail < d and tail + 2 ** tail <= 2 * (q - d):
        tail += 1
    layers, total, l = [2] * (d - tail), 2 * (q - d + tail), 2
    for rest in range(tail - 1, -1, -1):
        span = 2 ** rest - 1
        l = next(v for v in range(2 * l, max(2 * l - 3, l + 1) - 1, -1)
                 if 3 * rest + max(2 * v - 6, 1) * span
                 <= total - v <= 2 * v * span)
        layers.append(l)
        total -= l
    return layers


def sequence_for(D, q, delta):
    """The modify-walk sequence with weighted total exactly D.

    Each step raises d_of by one, so the phase ends' totals rise with d:
    bisect them for the last at or below D, and walk the rest from there.
    """
    lo, hi = d_min(q, delta), d_max(q, delta)
    if not lo <= D <= hi:
        raise ValueError(f"D={D} outside [{lo}, {hi}] for q={q}")
    layers = short_sequence(q)
    a, b = len(layers), q - 1
    while a <= b:
        d = (a + b) // 2
        end = _phase_end(q, d)
        if d_of(end, delta) <= D:
            layers, a = end, d + 1
        else:
            b = d - 1
    layers = tuple(
        next(islice(_walk(q, layers), D - d_of(layers, delta), None)))
    if d_of(layers, delta) != D:
        raise ConstructionError(
            f"modify walk reached {d_of(layers, delta)}, not D={D}")
    return layers


def enumerate_chain(q):
    """Yield the sequences of the modify walk from short to exhaustion."""
    for layers in _walk(q):
        yield tuple(layers)
