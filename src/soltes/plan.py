"""Closed forms and layer-sequence calculus for the tree-attachment plans.

A layer sequence (l_1, ..., l_d) prescribes how many attached vertices sit
at each distance i from the two attachment leaves.  The weighted total
d_of(L) = sum (delta + i) * l_i is the amount the attachment adds to the
deletion gap, so hitting a target gap means finding a sequence with the
right weighted total; the modify step walks the whole range one unit at a
time, from the binary-tree-like profile up to the all-twos chain.  One
generator owns that walk: sequence_for stops it at a target total, and
enumerate_chain yields every sequence on it as it is reached.
"""

from __future__ import annotations


class ConstructionError(Exception):
    """A construction or plan invariant failed: the program is at fault.

    Not a ValueError, which the command line reads as bad input (exit 2).
    """


class SequenceExhausted(Exception):
    """modify() found no applicable index (the all-twos profile is terminal)."""


class LayerSequence:
    """Positive layer counts satisfying the growth and cap conditions.

    With d = len(layers): sum is even (2q); 2 <= l_i <= 2^(i+1) for i < d;
    1 <= l_d <= 2^(d+1); and l_{i+1} <= 2 * l_i.
    """

    __slots__ = ("layers", "q")

    def __init__(self, layers):
        layers = tuple(int(x) for x in layers)
        if not layers:
            raise ValueError("layer sequence must be non-empty")
        total = sum(layers)
        if total % 2:
            raise ValueError(f"layer counts sum to odd total {total}")
        d = len(layers)
        for i, l in enumerate(layers, start=1):
            lo = 1 if i == d else 2
            if not (lo <= l <= 2 ** (i + 1)):
                raise ValueError(
                    f"layer {i} count {l} outside [{lo}, {2 ** (i + 1)}]")
            if i < d and layers[i] > 2 * l:
                raise ValueError(
                    f"layer {i + 1} grows faster than doubling ({layers[i]} > 2*{l})")
        self.layers = layers
        self.q = total // 2

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)

    def __eq__(self, other):
        if isinstance(other, LayerSequence):
            return self.layers == other.layers
        if isinstance(other, tuple):
            return self.layers == other
        return NotImplemented

    def __hash__(self):
        return hash(self.layers)

    def __repr__(self):
        return f"LayerSequence{self.layers}"

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.layers) + ")"


class PlanConstants:
    """Chain parameter t and the distance delta from the far pair to a leaf."""

    __slots__ = ("t", "delta")

    def __init__(self, t, delta=None):
        if t < 1:
            raise ValueError("t must be at least 1")
        self.t = t
        self.delta = 3 * t + 3 if delta is None else delta
        if self.delta < 1:
            raise ValueError("delta must be positive")

    def __repr__(self):
        return f"PlanConstants(t={self.t}, delta={self.delta})"


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


def d_of(L: LayerSequence, c: PlanConstants):
    return sum((c.delta + i) * l for i, l in enumerate(L.layers, start=1))


def short_sequence(q) -> LayerSequence:
    """Densest profile: full binary growth, remainder in the last layer."""
    a = tree_depth(q)
    layers = [2 ** (i + 1) for i in range(1, a - 1)]
    layers.append(2 * q - 2 ** a + 4)
    return LayerSequence(layers)


def long_sequence(q) -> LayerSequence:
    """Sparsest profile: q layers of two."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return LayerSequence((2,) * q)


def d_min(q, c: PlanConstants):
    a = tree_depth(q)
    return 2 * q * (c.delta + a - 1) - 2 ** (a + 1) + 4 * a


def d_max(q, c: PlanConstants):
    return 2 * q * c.delta + q * q + q


def feasible_q(target, c: PlanConstants):
    """(lo, hi, last q tried): the ends of the q whose [d_min, d_max] window
    holds target, or (None, None, last q tried) when none does.

    d_min grows with q, so no q past the first with d_min(q) > target fits.
    """
    lo = hi = None
    q = 1
    while d_min(q, c) <= target:
        if target <= d_max(q, c):
            # d_max grows with q too, so the hits are one interval
            if lo is None:
                lo = q
            elif hi != q - 1:
                raise ConstructionError(f"feasible q for target {target} are "
                                        f"not an interval: {hi}, then {q}")
            hi = q
        q += 1
    return lo, hi, q - 1


def q_range(t):
    """Smallest and largest q whose [d_min, d_max] window contains f_poly(t)."""
    target = f_poly(t)
    lo, hi, _ = feasible_q(target, PlanConstants(t))
    if lo is None:
        raise ValueError(f"no q admits target {target} for t={t}")
    return lo, hi


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


def modify(L: LayerSequence) -> LayerSequence:
    """Move one unit of layer mass one level deeper (see _modify_step).

    Raises SequenceExhausted when no index qualifies.
    """
    layers = list(L.layers)
    if _modify_step(layers) < 0:
        raise SequenceExhausted(str(L))
    return LayerSequence(layers)


def _walk(q):
    """The modify walk from short_sequence(q) to exhaustion.

    Yields one layer list, changed in place: first as the short sequence,
    then after every step.
    """
    layers = list(short_sequence(q).layers)
    yield layers
    start = 0
    while (i := _modify_step(layers, start)) >= 0:
        # the step changed only l_i and l_{i+1}, so the conditions at the
        # indices below i - 1 are unchanged, and none of them qualified
        start = max(i - 1, 0)
        yield layers


def sequence_for(D, q, c: PlanConstants) -> LayerSequence:
    """The modify-walk sequence with weighted total exactly D."""
    lo, hi = d_min(q, c), d_max(q, c)
    if not lo <= D <= hi:
        raise ValueError(f"D={D} outside [{lo}, {hi}] for q={q}")
    for step, layers in enumerate(_walk(q)):
        if step == D - lo:
            break
    L = LayerSequence(layers)
    if d_of(L, c) != D:
        raise ConstructionError(f"modify walk reached {d_of(L, c)}, not D={D}")
    return L


def enumerate_chain(q):
    """Yield the sequences of the modify walk from short to exhaustion."""
    for layers in _walk(q):
        yield LayerSequence(layers)
