"""Layer-sequence calculus: pinned values and closed-form cross-checks."""

import pytest

from soltes.plan import (LayerSequence, PlanConstants, SequenceExhausted,
                         d_max, d_min, d_of, enumerate_chain, f_poly,
                         long_sequence, modify, q_range, sequence_for,
                         short_sequence, tree_depth)


def test_f_poly_small_values():
    assert f_poly(1) == -32
    assert f_poly(2) == 30
    assert f_poly(3) == 268
    assert f_poly(4) == 778
    assert [f_poly(t) for t in range(1, 4)] == [-32, 30, 268]


def test_layer_sequence_validation():
    L = LayerSequence((4, 8, 8))
    assert L.q == 10
    assert str(L) == "(4,8,8)"
    assert L == (4, 8, 8)
    with pytest.raises(ValueError):
        LayerSequence(())
    with pytest.raises(ValueError):
        LayerSequence((3,))  # odd total
    with pytest.raises(ValueError):
        LayerSequence((1, 3))  # interior layer below 2
    with pytest.raises(ValueError):
        LayerSequence((2, 5))  # growth beyond doubling
    with pytest.raises(ValueError):
        LayerSequence((5, 8, 8, 1))  # first layer above 4
    with pytest.raises(ValueError):
        LayerSequence((4, 8, 8, 0))


def test_weighted_total_examples():
    c = PlanConstants(3)
    assert c.delta == 12
    assert d_of(LayerSequence((3, 3, 5, 7)), c) == 268
    assert d_of(LayerSequence((2, 4, 6, 6)), c) == 268
    assert d_of(LayerSequence((4, 8, 8)), c) == 284


def test_extreme_sequences():
    assert short_sequence(10) == (4, 8, 8)
    assert long_sequence(10) == (2,) * 10
    assert short_sequence(1) == (2,)
    assert short_sequence(3) == (4, 2)
    assert short_sequence(9) == (4, 8, 6)


def test_extreme_values_match_formulas():
    # closed forms checked against direct evaluation of the sequences
    for q in range(1, 120):
        c = PlanConstants(5)
        lo = d_of(LayerSequence(short_sequence(q)), c)
        hi = d_of(LayerSequence(long_sequence(q)), c)
        assert lo == d_min(q, c)
        assert hi == d_max(q, c)
        # the depth constant counts the two-root level above layer one
        assert tree_depth(q) == len(short_sequence(q)) + 1


def test_modify_step_examples():
    c = PlanConstants(3)
    s = LayerSequence((4, 8, 8))
    t = modify(s)
    assert t == (4, 7, 9)
    # pushing a unit one layer deeper raises the weighted total by one
    assert d_of(t, c) == d_of(s, c) + 1
    assert modify(LayerSequence((4, 7, 9))) == (4, 6, 10)
    # lengthens when no in-place move remains
    assert modify(LayerSequence((4, 6, 10))) == (4, 6, 9, 1)
    with pytest.raises(SequenceExhausted):
        modify(LayerSequence((2, 2, 2)))


def test_chain_for_q10():
    chain = list(enumerate_chain(10))
    assert len(chain) == 67
    assert chain[0] == (4, 8, 8)
    assert chain[-1] == (2,) * 10
    assert chain[12] == (3, 4, 7, 6)
    assert chain[24] == (2, 3, 4, 7, 4)
    c = PlanConstants(4)
    values = [d_of(s, c) for s in chain]
    assert values == list(range(d_min(10, c), d_max(10, c) + 1))
    assert d_max(10, c) - d_min(10, c) == 66


def test_chain_invariants_various_q():
    for q in (1, 2, 3, 7, 13, 20):
        chain = list(enumerate_chain(q))
        assert chain[0] == short_sequence(q)
        assert chain[-1] == long_sequence(q)
        assert len(chain) == len({tuple(s.layers) for s in chain})
        c = PlanConstants(6)
        assert len(chain) == d_max(q, c) - d_min(q, c) + 1


def test_q_range_pinned_rows():
    assert q_range(3) == (9, 9)
    assert q_range(4) == (17, 21)
    assert q_range(5) == (27, 38)
    assert q_range(18) == (249, 698)
    assert q_range(31) == (595, 2225)
    with pytest.raises(ValueError):
        q_range(2)


def test_q_range_bounds_are_tight():
    for t in range(3, 12):
        lo, hi = q_range(t)
        c = PlanConstants(t)
        target = f_poly(t)
        assert d_min(lo, c) <= target <= d_max(lo, c)
        assert d_min(hi, c) <= target <= d_max(hi, c)
        for q in (lo - 1, hi + 1):
            if q >= 1:
                assert not (d_min(q, c) <= target <= d_max(q, c))


def exhaustive_window(t):
    """Smallest and largest q that fit f_poly(t), by trying every candidate.

    Each of the 2q attached vertices sits more than delta from its leaf, so
    d_min(q) > 2 q delta, and no q above f_poly(t) // (2 delta) can fit.
    """
    c = PlanConstants(t)
    target = f_poly(t)
    hits = []
    for q in range(1, target // (2 * c.delta) + 1):
        assert d_min(q, c) > 2 * q * c.delta
        if d_min(q, c) <= target <= d_max(q, c):
            hits.append(q)
    return hits[0], hits[-1]


def test_q_range_is_the_exhaustive_window():
    # a fixed search cap once cut both windows short
    assert q_range(47) == (1146, 5316)
    assert q_range(60) == (1677, 8822)
    for t in range(3, 71):
        assert q_range(t) == exhaustive_window(t), t


def test_sequence_for_hits_target():
    c = PlanConstants(3)
    L = sequence_for(268, 9, c)
    assert L == (3, 3, 5, 7)
    assert d_of(L, c) == 268
    for t in (4, 5):
        c = PlanConstants(t)
        lo, hi = q_range(t)
        for q in range(lo, hi + 1):
            L = sequence_for(f_poly(t), q, c)
            assert d_of(L, c) == f_poly(t)
            assert L.q == q
    with pytest.raises(ValueError):
        sequence_for(10 ** 9, 9, PlanConstants(3))


def test_sequence_for_matches_chain_for_every_feasible_target():
    for t in range(3, 7):
        c = PlanConstants(t)
        for q in range(1, 26):
            chain = list(enumerate_chain(q))
            lo = d_min(q, c)
            for D in range(lo, d_max(q, c) + 1):
                assert sequence_for(D, q, c) == chain[D - lo], (t, q, D)


def test_sequence_for_long_walk_pinned():
    # t = 12 at q = lo: a walk of 14874 modify steps
    c = PlanConstants(12)
    assert q_range(12)[0] == 128
    L = sequence_for(f_poly(12), 128, c)
    assert L == (2,) * 106 + (3, 4, 6, 9, 17, 5)
    assert f_poly(12) - d_min(128, c) == 14874


def test_plan_constants_delta_override():
    assert PlanConstants(3).delta == 12
    assert PlanConstants(3, 15).delta == 15
    assert PlanConstants(4).delta == 15
