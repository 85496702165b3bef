"""Layer-sequence calculus: pinned values and closed-form cross-checks."""

import math
import random
import re
from itertools import islice

import pytest

from soltes import plan
from soltes.plan import (Infeasible, SequenceExhausted, _modify_step,
                         _phase_end, _walk, check_layers, d_max, d_min, d_of,
                         enumerate_chain, f_poly, modify, q_range,
                         sequence_for, short_sequence, tree_depth)

# (gap, q, delta) of the sequence_for call behind each of the 27 builds of
# the benchmark's construct sweep: r = 1 at both ends of q_range(t), then
# r = 2 and r = 3 at their smallest q.
WORKLOAD_TARGETS = [
    (268, 9, 12), (778, 17, 15), (1656, 27, 18), (2998, 38, 21),
    (4900, 50, 24), (7458, 64, 27), (10768, 78, 30), (14926, 94, 33),
    (20028, 110, 36), (26170, 128, 39), (778, 21, 15), (1656, 38, 18),
    (2998, 59, 21), (4900, 85, 24), (7458, 116, 27), (10768, 152, 30),
    (14926, 192, 33), (20028, 238, 36), (455, 11, 16), (2279, 31, 22),
    (6183, 56, 28), (12935, 85, 34), (23303, 118, 40), (301, 6, 23),
    (2665, 30, 29), (7429, 58, 35), (15361, 90, 41)]


def test_f_poly_small_values():
    assert f_poly(1) == -32
    assert f_poly(2) == 30
    assert f_poly(3) == 268
    assert f_poly(4) == 778
    assert [f_poly(t) for t in range(1, 4)] == [-32, 30, 268]


def test_layer_sequence_validation():
    assert check_layers([4, 8, 8]) == (4, 8, 8)
    for layers, message in [
        ((), "must be non-empty"),
        ((3,), "odd total 3"),
        ((1, 3), "layer 1 count 1 outside [2, 4]"),  # interior layer below 2
        ((2, 5), "odd total 7"),
        ((2, 6), "layer 2 grows faster than doubling (6 > 2*2)"),
        ((5, 8, 8, 1), "layer 1 count 5 outside [2, 4]"),
        ((4, 8, 8, 0), "layer 4 count 0 outside [1, 32]"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            check_layers(layers)


def test_weighted_total_examples():
    # delta = 3t + 3 = 12 at t = 3
    assert d_of((3, 3, 5, 7), 12) == 268
    assert d_of((2, 4, 6, 6), 12) == 268
    assert d_of((4, 8, 8), 12) == 284


def test_extreme_sequences():
    assert short_sequence(10) == (4, 8, 8)
    assert short_sequence(1) == (2,)
    assert short_sequence(3) == (4, 2)
    assert short_sequence(9) == (4, 8, 6)


def test_extreme_values_match_formulas():
    # closed forms checked against direct evaluation of the sequences; the
    # sparsest profile is q layers of two
    for q in range(1, 120):
        delta = 18  # 3t + 3 at t = 5
        assert d_of(short_sequence(q), delta) == d_min(q, delta)
        assert d_of(check_layers((2,) * q), delta) == d_max(q, delta)
        # the depth constant counts the two-root level above layer one
        assert tree_depth(q) == len(short_sequence(q)) + 1


def test_modify_step_examples():
    s = (4, 8, 8)
    t = modify(s)
    assert t == (4, 7, 9)
    # pushing a unit one layer deeper raises the weighted total by one
    assert d_of(t, 12) == d_of(s, 12) + 1
    assert modify((4, 7, 9)) == (4, 6, 10)
    # lengthens when no in-place move remains
    assert modify((4, 6, 10)) == (4, 6, 9, 1)
    with pytest.raises(SequenceExhausted):
        modify((2, 2, 2))


def test_chain_for_q10():
    chain = list(enumerate_chain(10))
    assert len(chain) == 67
    assert chain[0] == (4, 8, 8)
    assert chain[-1] == (2,) * 10
    assert chain[12] == (3, 4, 7, 6)
    assert chain[24] == (2, 3, 4, 7, 4)
    values = [d_of(s, 15) for s in chain]
    assert values == list(range(d_min(10, 15), d_max(10, 15) + 1))
    assert d_max(10, 15) - d_min(10, 15) == 66


def test_chain_invariants_various_q():
    for q in (1, 2, 3, 7, 13, 20):
        chain = list(enumerate_chain(q))
        assert chain[0] == short_sequence(q)
        assert chain[-1] == (2,) * q
        assert len(chain) == len(set(chain))
        assert len(chain) == d_max(q, 21) - d_min(q, 21) + 1


def test_every_walk_state_passes_the_full_check():
    # the walk checks each state only around its step; the full check on
    # every state is the oracle
    for q in range(1, 61):
        for layers in _walk(q):
            assert check_layers(layers) == tuple(layers), q
            assert sum(layers) == 2 * q, q


def break_bound(layers, i):
    layers[i] = 1  # after a step, l_i is never the last layer


def break_doubling(layers, i):
    layers[i + 1] = 2 * layers[i] + 1


def break_appended(layers, i):
    layers[i + 1] = 0


@pytest.mark.parametrize("breakage, appends, message", [
    (break_bound, False, r"count 1 outside \[2, "),
    (break_doubling, False, "grows faster than doubling"),
    (break_appended, True, r"count 0 outside \[1, "),
])
def test_walk_refuses_the_state_a_broken_step_makes(monkeypatch, breakage,
                                                     appends, message):
    # the 30th step at q = 60 that appends a layer (or does not) is broken,
    # and enumerate_chain raises on that very state
    calls, chosen = [0], []

    def broken(layers, start=0):
        calls[0] += 1
        d = len(layers)
        i = _modify_step(layers, start)
        if i >= 0 and (len(layers) > d) == appends:
            chosen.append(i)
            if len(chosen) == 30:
                breakage(layers, i)
        return i

    monkeypatch.setattr(plan, "_modify_step", broken)
    states = 0
    with pytest.raises(ValueError, match=message):
        for _ in enumerate_chain(60):
            states += 1
    assert len(chosen) == 30
    # the start state and every step before the broken one
    assert states == calls[0]


def test_q_range_pinned_rows():
    assert q_range(3) == (9, 9)
    assert q_range(4) == (17, 21)
    assert q_range(5) == (27, 38)
    assert q_range(18) == (249, 698)
    assert q_range(31) == (595, 2225)
    # the same message, and the same exit code, as construct at r = 1
    with pytest.raises(Infeasible,
                       match=re.escape("gap 30 at t=2, r=1 fits no q in [1, 1]")):
        q_range(2)
    with pytest.raises(Infeasible, match=re.escape(
            "gap -32 at t=1, r=1 is below d_min(1) = 14")):
        q_range(1)
    # t = 0 has no gap at all: bad input, not an infeasible one
    with pytest.raises(ValueError) as err:
        q_range(0)
    assert not isinstance(err.value, Infeasible)


def test_q_range_bounds_are_tight():
    for t in range(3, 12):
        lo, hi = q_range(t)
        delta = 3 * t + 3
        target = f_poly(t)
        assert d_min(lo, delta) <= target <= d_max(lo, delta)
        assert d_min(hi, delta) <= target <= d_max(hi, delta)
        for q in (lo - 1, hi + 1):
            if q >= 1:
                assert not (d_min(q, delta) <= target <= d_max(q, delta))


def exhaustive_window(t):
    """Smallest and largest q that fit f_poly(t), by trying every candidate.

    Each of the 2q attached vertices sits more than delta from its leaf, so
    d_min(q) > 2 q delta, and no q above f_poly(t) // (2 delta) can fit.
    """
    delta = 3 * t + 3
    target = f_poly(t)
    hits = []
    for q in range(1, target // (2 * delta) + 1):
        assert d_min(q, delta) > 2 * q * delta
        if d_min(q, delta) <= target <= d_max(q, delta):
            hits.append(q)
    return hits[0], hits[-1]


def test_q_range_is_the_exhaustive_window():
    # a fixed search cap once cut both windows short
    assert q_range(47) == (1146, 5316)
    assert q_range(60) == (1677, 8822)
    for t in range(3, 71):
        assert q_range(t) == exhaustive_window(t), t


def test_sequence_for_hits_target():
    L = sequence_for(268, 9, 12)
    assert L == (3, 3, 5, 7)
    assert d_of(L, 12) == 268
    for t in (4, 5):
        delta = 3 * t + 3
        lo, hi = q_range(t)
        for q in range(lo, hi + 1):
            L = sequence_for(f_poly(t), q, delta)
            assert d_of(L, delta) == f_poly(t)
            assert sum(L) == 2 * q
    with pytest.raises(ValueError):
        sequence_for(10 ** 9, 9, 12)


@pytest.mark.slow
def test_sequence_for_matches_chain_for_every_feasible_target():
    for t in range(3, 7):
        delta = 3 * t + 3
        for q in range(1, 41):
            chain = list(enumerate_chain(q))
            lo = d_min(q, delta)
            for D in range(lo, d_max(q, delta) + 1):
                assert sequence_for(D, q, delta) == chain[D - lo], (t, q, D)


def test_sequence_for_matches_chain_at_seeded_and_workload_targets():
    rng = random.Random(22)
    targets = {}
    for q in (128, 238, 400):
        delta = rng.randrange(200)
        lo, hi = d_min(q, delta), d_max(q, delta)
        for D in rng.sample(range(lo, hi + 1), 50) + [lo, hi]:
            targets.setdefault(q, []).append((D - lo, D, delta))
    for gap, q, delta in WORKLOAD_TARGETS:
        targets.setdefault(q, []).append((gap - d_min(q, delta), gap, delta))
    for q, wanted in targets.items():
        steps = {step for step, _, _ in wanted}
        at = {step: layers for step, layers in enumerate(enumerate_chain(q))
              if step in steps}
        for step, D, delta in wanted:
            assert sequence_for(D, q, delta) == at[step], (q, D, delta)


def phase_ends(q):
    """{d: the walk's last state of length d} for every d it lengthens past."""
    ends, prev = {}, None
    for layers in _walk(q):
        if prev is not None and len(layers) > len(prev):
            ends[len(prev)] = prev
        prev = tuple(layers)
    return ends


def valid_sequences(total, d, head=()):
    """Every sequence of length d summing to total that check_layers accepts."""
    if len(head) == d:
        if total == 0:
            yield head
        return
    last = len(head) == d - 1
    cap = 2 * head[-1] if head else 4
    for l in range(1 if last else 2, min(cap, total) + 1):
        yield from valid_sequences(total - l, d, head + (l,))


def test_phase_end_is_the_walks_last_state_of_each_length():
    for q in [*range(1, 81), 128, 152, 192, 238]:
        ends = phase_ends(q)
        assert sorted(ends) == list(range(len(short_sequence(q)), q)), q
        for d, layers in ends.items():
            assert tuple(_phase_end(q, d)) == layers, (q, d)


def test_phase_end_is_the_largest_sequence_only_its_last_index_moves():
    for q in range(2, 13):
        for d in range(len(short_sequence(q)), q):
            last_only = [s for s in valid_sequences(2 * q, d)
                         if _modify_step(list(s)) == d - 1]
            assert tuple(_phase_end(q, d)) == max(last_only), (q, d)


def longest_phase(q):
    """The most modify steps the walk takes at one length."""
    steps = {}
    for layers in islice(_walk(q), 1, None):
        steps[len(layers)] = steps.get(len(layers), 0) + 1
    return max(steps.values())


def count_calls(monkeypatch, name):
    calls = [0]
    wrapped = getattr(plan, name)

    def counting(*args):
        calls[0] += 1
        return wrapped(*args)
    monkeypatch.setattr(plan, name, counting)
    return calls


@pytest.mark.parametrize("t, q, most, layers", [
    # 14874 steps past short_sequence(128); the walk's longest phase there
    # is 241 steps
    (12, 128, 241, (2,) * 106 + (3, 4, 6, 9, 17, 5)),
    # 2782356 steps past short_sequence(1677); every phase of q <= 300 is
    # shorter than 2q, and the longest at q = 1677 is 3330 steps
    (60, 1677, 2 * 1677 - 1, (2,) * 1625 + (3, 4, 5, 8, 14, 24, 46)),
])
def test_sequence_for_walks_at_most_a_phase(monkeypatch, t, q, most, layers):
    steps = count_calls(monkeypatch, "_modify_step")
    ends = count_calls(monkeypatch, "_phase_end")
    assert sequence_for(f_poly(t), q, 3 * t + 3) == layers
    assert steps[0] <= most
    assert ends[0] <= math.ceil(math.log2(q)) + 1


def test_longest_phase_pinned():
    assert longest_phase(128) == 241


def test_sequence_for_long_walk_pinned():
    # t = 12 at q = lo: 14874 modify steps past short_sequence(128), of
    # which sequence_for walks only those after the last phase end below
    # the target
    assert q_range(12)[0] == 128
    L = sequence_for(f_poly(12), 128, 39)
    assert L == (2,) * 106 + (3, 4, 6, 9, 17, 5)
    assert f_poly(12) - d_min(128, 39) == 14874
