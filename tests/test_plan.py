"""Layer-sequence calculus: pinned values and closed-form cross-checks."""

import re

import pytest

from soltes.plan import (Infeasible, SequenceExhausted, check_layers, d_max,
                         d_min, d_of, enumerate_chain, f_poly, modify,
                         q_range, sequence_for, short_sequence, tree_depth)


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


def test_sequence_for_matches_chain_for_every_feasible_target():
    for t in range(3, 7):
        delta = 3 * t + 3
        for q in range(1, 26):
            chain = list(enumerate_chain(q))
            lo = d_min(q, delta)
            for D in range(lo, d_max(q, delta) + 1):
                assert sequence_for(D, q, delta) == chain[D - lo], (t, q, D)


def test_sequence_for_long_walk_pinned():
    # t = 12 at q = lo: a walk of 14874 modify steps
    assert q_range(12)[0] == 128
    L = sequence_for(f_poly(12), 128, 39)
    assert L == (2,) * 106 + (3, 4, 6, 9, 17, 5)
    assert f_poly(12) - d_min(128, 39) == 14874
