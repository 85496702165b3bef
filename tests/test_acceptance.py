"""End-to-end acceptance checks, one test per shipped claim.

Every test prints a single PASS/FAIL line (visible with -s or in captured
output) and enforces its own wall-clock budget.
"""

import os
import time

import numpy as np
import pytest

from soltes.builder import build_many_soltes, build_two_soltes
from soltes.cayley import load_catalog, verify_entry
from soltes.codec import decode_graph6, encode_graph6
from soltes.core import (Graph, delete_vertex, is_biconnected, soltes_report,
                         wiener)
from soltes.enumeration import classify_table
from soltes.families import complete, cycle, g_t_r, wheel
from soltes.plan import d_of, enumerate_chain, f_poly, q_range, short_sequence


class _criterion:
    """Context manager: prints '<name>: PASS|FAIL (x.xs)' and checks budget."""

    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"{self.name}: {verdict} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} exceeded budget: {elapsed:.2f}s >= {self.budget}s")
        return False


def test_criterion_01_small_graph_constants():
    with _criterion("criterion 01 complete/wheel constants", 1.0):
        k7 = complete(7)
        assert wiener(k7) == 21
        assert wiener(delete_vertex(k7, 0)) == 15

        w9 = wheel(9)
        assert wiener(w9.graph) == 56
        assert wiener(delete_vertex(w9.graph, w9["hub"])) == 64

        w8 = wheel(8)
        assert wiener(w8.graph) == 42
        assert wiener(delete_vertex(w8.graph, w8["hub"])) == 42
        assert w8["hub"] in soltes_report(w8.graph).soltes_set


def test_criterion_02_eleven_cycle_uniqueness():
    with _criterion("criterion 02 unique fully-removable cycle", 5.0):
        report = soltes_report(cycle(11))
        assert tuple(report.soltes_set) == tuple(range(11))
        assert report.alpha == 1
        # all() short-circuits at the first vertex whose removal moves the
        # index, so non-qualifying cycles cost a single deletion each
        fully = []
        for n in range(3, 201):
            g = cycle(n)
            w = wiener(g)
            if all(wiener(delete_vertex(g, v)) == w for v in range(n)):
                fully.append(n)
        assert fully == [11]


def test_criterion_03_base_family_gap_polynomial():
    with _criterion("criterion 03 deletion-gap polynomial t=1..6", 30.0):
        for t in range(1, 7):
            base = g_t_r(t, 1)
            w = wiener(base.graph)
            for center in ("u1", "u2"):
                gap = wiener(delete_vertex(base.graph, base[center])) - w
                assert gap == f_poly(t), f"t={t} {center}"


_Q_TABLE = {
    3: (9, 9), 4: (17, 21), 5: (27, 38), 6: (38, 59), 7: (50, 85),
    8: (64, 116), 9: (78, 152), 10: (94, 192), 11: (110, 238),
    12: (128, 288), 13: (146, 344), 14: (165, 405), 15: (185, 471),
    16: (205, 542), 17: (227, 617), 18: (249, 698), 19: (272, 785),
    20: (295, 876), 21: (319, 973), 22: (344, 1075), 23: (370, 1182),
    24: (396, 1294), 25: (422, 1411), 26: (450, 1533), 27: (478, 1661),
    28: (506, 1795), 29: (535, 1933), 30: (565, 2077), 31: (595, 2225),
}


def test_criterion_04_attachment_size_table():
    with _criterion("criterion 04 q_range table t=3..31", 10.0):
        for t, expected in _Q_TABLE.items():
            assert q_range(t) == expected, f"t={t}"


# Frozen prefix of the 2q=20 chain, a regression oracle for the stepper.
_CHAIN_PREFIX = [
    (4, 8, 8), (4, 7, 9), (4, 6, 10), (4, 6, 9, 1), (4, 6, 8, 2),
    (4, 5, 9, 2), (4, 5, 8, 3), (4, 5, 7, 4),
    (4, 5, 6, 5), (4, 4, 7, 5), (3, 5, 7, 5), (3, 5, 6, 6), (3, 4, 7, 6),
    (3, 4, 6, 7), (3, 4, 5, 8), (3, 4, 5, 7, 1),
    (3, 4, 5, 6, 2), (3, 4, 4, 7, 2), (3, 3, 5, 7, 2), (2, 4, 5, 7, 2),
    (2, 4, 5, 6, 3), (2, 4, 4, 7, 3), (2, 3, 5, 7, 3), (2, 3, 5, 6, 4),
    (2, 3, 4, 7, 4), (2, 3, 4, 6, 5), (2, 3, 4, 5, 6), (2, 3, 4, 4, 7),
    (2, 3, 3, 5, 7), (2, 2, 4, 5, 7), (2, 2, 4, 5, 6, 1), (2, 2, 4, 4, 7, 1),
    (2, 2, 3, 5, 7, 1), (2, 2, 3, 5, 6, 2), (2, 2, 3, 4, 7, 2),
    (2, 2, 3, 4, 6, 3), (2, 2, 3, 4, 5, 4),
]


def test_criterion_05_layer_chain_for_twenty():
    with _criterion("criterion 05 layer-sequence chain 2q=20", 1.0):
        chain = list(enumerate_chain(10))
        assert len(chain) == 67
        assert chain[:37] == _CHAIN_PREFIX
        assert chain[-1] == (2,) * 10
        span = d_of(chain[-1], 12) - d_of(short_sequence(10), 12)
        assert span == 66


def test_criterion_06_two_soltes_vertices_full_sweep():
    with _criterion("criterion 06 paired removable vertices t=3..5", 120.0):
        for t in (3, 4, 5):
            lo, hi = q_range(t)
            for q in range(lo, hi + 1):
                h, plan = build_two_soltes(t, q)
                assert h.n == 8 * t + 8 + 2 * q, f"t={t} q={q}"
                assert all(h.degree(v) == 3 for v in range(h.n))
                assert is_biconnected(h)
                w = wiener(h)
                assert wiener(delete_vertex(h, plan.labels["u1"])) == w
                assert wiener(delete_vertex(h, plan.labels["u2"])) == w


def test_criterion_07_four_soltes_vertices_smallest_fan():
    with _criterion("criterion 07 four removable vertices, r=2", 300.0):
        for t in (1, 2, 3):
            with pytest.raises(ValueError):
                build_many_soltes(t, 2)
        h, plan = build_many_soltes(4, 2)
        centers = plan.labels["centers"]
        assert len(centers) == 4
        assert all(h.degree(v) == 3 for v in range(h.n))
        assert is_biconnected(h)
        w = wiener(h)
        for center in centers:
            assert wiener(delete_vertex(h, center)) == w, f"center {center}"


def test_criterion_08_cubic_census():
    with _criterion("criterion 08a cubic census n<=14", 300.0):
        totals = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
        for n, total in totals.items():
            row = classify_table(n, 3)
            assert row.total == total, f"n={n}"
            assert row.counts == {}, f"n={n} expected no removable vertices"
        assert sum(totals.values()) == 112
        row = classify_table(14, 3)
        assert row.total == 509
        assert row.counts == {1: 4, 2: 3}


@pytest.mark.slow
def test_criterion_08_quartic_census():
    with _criterion("criterion 08b quartic census n=13", 3600.0):
        row = classify_table(13, 4)
        assert row.total == 10778
        assert row.counts == {2: 1}


@pytest.mark.skipif(not os.environ.get("SOLTES_EXTENDED"),
                    reason="optional extended census; set SOLTES_EXTENDED=1")
@pytest.mark.slow
def test_criterion_08_extended_cubic_census():
    row = classify_table(16, 3)
    assert row.total == 4060
    assert row.counts == {1: 108, 2: 37, 3: 1, 4: 2}


def test_criterion_09_catalog_verification():
    with _criterion("criterion 09 generator catalog closures", 900.0):
        entries = load_catalog()
        assert [e.expected["group_order"] for e in entries] == [
            384, 600, 768, 1000, 1056, 1056, 1280, 324]
        results = {}
        for entry in entries:
            result = verify_entry(entry)
            assert result["ok"], f"{entry.name}: {result['checks']}"
            results[entry.name] = result
            # every transform has exactly a third of its vertices removable
            t = result["transform"]
            order = entry.expected["group_order"]
            if entry.expected["transform"] == "line_graph":
                assert t["kind"] == "line_graph" and t["order"] == 3 * order // 2
                assert t["regular"] == 4
            else:
                assert t["kind"] == "truncation" and t["order"] == 3 * order
                assert t["regular"] == 3
            assert 3 * t["soltes_count"] == t["order"], entry.name
            assert t["alpha_at_least_third"]
        t384 = results["CVT(384,805)"]["transform"]
        assert t384["kind"] == "truncation" and t384["order"] == 1152
        assert t384["alpha_at_least_third"]
        t600 = results["CVT(600,259)"]["transform"]
        assert t600["kind"] == "truncation" and t600["order"] == 1800
        assert t600["alpha_at_least_third"]
        l324 = results["CVT(324,104)"]["transform"]
        assert l324["kind"] == "line_graph" and l324["order"] == 486
        assert l324["regular"] == 4
        assert l324["alpha_at_least_third"]


def test_criterion_10_codec_roundtrip():
    with _criterion("criterion 10 graph6 roundtrip", 5.0):
        assert decode_graph6("@").n == 1
        g2 = decode_graph6("A?")
        assert g2.n == 2 and g2.m == 0
        g2e = decode_graph6("A_")
        assert g2e == Graph(2, [(0, 1)]) and g2e.m == 1
        assert encode_graph6(Graph(2, [(0, 1)])) == "A_"

        rng = np.random.default_rng(20260815)
        for i in range(10000):
            n = int(rng.integers(1, 61))
            density = float(rng.random()) * 0.3
            mat = rng.random((n, n)) < density
            iu = np.triu_indices(n, 1)
            keep = mat[iu]
            edges = list(zip(iu[0][keep].tolist(), iu[1][keep].tolist()))
            g = Graph(n, edges)
            h = decode_graph6(encode_graph6(g))
            assert h == g and h.m == g.m, f"graph {i} (n={n})"
