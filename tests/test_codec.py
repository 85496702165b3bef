"""graph6 codec, permutation parsing and report serialization."""

import json
import random

import pytest

from soltes.codec import (_size_field, decode_graph6, encode_graph6,
                          parse_permutation, write_report)
from soltes.core import Graph, soltes_report


def test_fixed_vectors():
    assert encode_graph6(Graph(1)) == "@"
    assert encode_graph6(Graph(2)) == "A?"
    assert encode_graph6(Graph(2, [(0, 1)])) == "A_"
    assert decode_graph6("@").n == 1
    g = decode_graph6("A_")
    assert g.n == 2 and list(g.edges()) == [(0, 1)]
    assert decode_graph6("A?").m == 0


def test_known_small_graphs():
    # 5-cycle and K4 in their standard encodings
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert encode_graph6(c5) == "Dhc"
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert encode_graph6(k4) == "C~"
    assert decode_graph6("C~") == k4


def test_header_is_accepted():
    g = decode_graph6(">>graph6<<A_")
    assert g.n == 2 and g.m == 1


def test_roundtrip_random():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(0, 61)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.3]
        g = Graph(n, edges)
        assert decode_graph6(encode_graph6(g)) == g


def test_decoded_graph_is_what_the_constructor_builds():
    # decode_graph6 skips Graph.__init__'s checks; its result must still be
    # the same object state: n, m and sorted tuples of plain ints
    rng = random.Random(3)
    for n in (0, 1, 2, 5, 63, 64, 200):
        for p in (0.0, 0.1, 0.5, 1.0):
            g = Graph(n, [(v, u) for u in range(n) for v in range(u)
                          if rng.random() < p])
            h = decode_graph6(encode_graph6(g))
            assert (h.n, h.m, h.adj) == (g.n, g.m, g.adj)
            assert all(type(a) is tuple for a in h.adj)
            assert all(type(u) is int for a in h.adj for u in a)


def test_roundtrip_medium_and_large_size_fields():
    rng = random.Random(2)
    for n in (62, 63, 100, 258, 1000):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.01]
        g = Graph(n, edges)
        s = encode_graph6(g)
        if n > 62:
            assert s.startswith("~")
        assert decode_graph6(s) == g


def test_matches_networkx_graph6():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for n in (1, 62, 63, 64, 65, 300):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.1]
        g = Graph(n, edges)
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        ref_text = nx.to_graph6_bytes(ref, header=False).decode().strip()
        assert encode_graph6(g) == ref_text
        assert decode_graph6(ref_text) == g
        back = nx.from_graph6_bytes(encode_graph6(g).encode())
        assert sorted(back.nodes) == list(range(n))
        assert Graph(n, back.edges) == g


def test_size_field_switches_form_at_spec_limit():
    # graph6: 4-byte form for 63 <= n <= 258047, 8-byte form above
    assert _size_field(62) == "}"
    assert _size_field(63) == "~??~"
    four = _size_field(258047)
    assert four.startswith("~") and not four.startswith("~~")
    assert len(four) == 4
    eight = _size_field(258048)
    assert eight.startswith("~~") and len(eight) == 8
    # the decoder reads each order back from the header alone: a short
    # body fails with the order named, so no large graph is built
    for n in (62, 258047, 258048):
        with pytest.raises(ValueError, match=f"expected .* for n={n}$"):
            decode_graph6(_size_field(n) + "??")
    # the 8-byte form's largest order is read whole, then refused
    n = 2 ** 36 - 1
    assert _size_field(n) == "~~~~~~~~"
    with pytest.raises(ValueError, match=f"order {n} exceeds"):
        decode_graph6(_size_field(n))


def test_decode_errors():
    with pytest.raises(ValueError):
        decode_graph6("")
    with pytest.raises(ValueError):
        decode_graph6("A")  # missing body character
    with pytest.raises(ValueError):
        decode_graph6("A__")  # trailing body character
    with pytest.raises(ValueError):
        decode_graph6("A" + chr(20))  # byte below the graph6 range
    with pytest.raises(ValueError):
        decode_graph6("~")  # truncated extended size field


def test_parse_permutation_cases():
    assert parse_permutation("(1,2,3)", 5) == (1, 2, 0, 3, 4)
    assert parse_permutation("()", 3) == (0, 1, 2)
    assert parse_permutation(" (1, 4)(2, 3) ", 4) == (3, 2, 1, 0)


def test_parse_permutation_errors():
    with pytest.raises(ValueError):
        parse_permutation("(1,2", 4)
    with pytest.raises(ValueError):
        parse_permutation("1,2)", 4)
    with pytest.raises(ValueError):
        parse_permutation("(1,5)", 4)
    with pytest.raises(ValueError):
        parse_permutation("(1,2)(2,3)", 4)
    with pytest.raises(ValueError):
        parse_permutation("(1,x)", 4)


def test_parse_permutation_takes_only_ascii_digits():
    # int() reads each of these entries, but none is cycle notation:
    # an underscore, a sign, an Arabic-Indic three, a tab
    for text in ("(1_0,2)", "(+1,2)", "(\u0663,1)", "(1,\t2)"):
        with pytest.raises(ValueError, match="not cycle notation"):
            parse_permutation(text, 12)


def test_write_report_shapes():
    c11 = Graph(11, [(i, (i + 1) % 11) for i in range(11)])
    line = write_report(soltes_report(c11), "c11")
    rec = json.loads(line)
    assert rec == {"id": "c11", "n": 11, "wiener": 165,
                   "soltes_count": 11,
                   "soltes_vertices": list(range(11)),
                   "alpha": "1/1"}
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    rec = json.loads(write_report(soltes_report(k4), "k4"))
    assert rec["alpha"] == "0/4"
    assert rec["soltes_vertices"] == []
