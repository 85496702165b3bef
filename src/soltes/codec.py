"""graph6 encoding/decoding, cycle-notation parsing, report serialization."""

from __future__ import annotations

import json
import re

import numpy as np

from .core import Graph

_HEADER = ">>graph6<<"
_MAX_N = 10 ** 6


# graph6's size-field forms: (prefix, 6-bit digits, largest n).  The
# 3-digit form stops at 258047, the largest n whose first digit is below 63,
# so the field cannot be read as "~~".
_SIZE_FORMS = (("", 1, 62), ("~", 3, 258047), ("~~", 6, 2 ** 36 - 1))


def _size_field(n):
    prefix, digits, _ = next(form for form in _SIZE_FORMS if n <= form[2])
    return prefix + "".join(chr(((n >> 6 * k) & 63) + 63)
                            for k in reversed(range(digits)))


def encode_graph6(g: Graph) -> str:
    """Header-free graph6 text for g."""
    if g.n > _MAX_N:
        raise ValueError(f"graph too large to encode (n={g.n})")
    # The stream lists the upper triangle column by column, so the pair
    # (u, v), u < v, is bit v(v-1)/2 + u; each 6-bit group, zero-padded at
    # the end, becomes one character.
    n = g.n
    nbits = n * (n - 1) // 2
    bits = np.zeros((nbits + 5) // 6 * 6, dtype=np.uint8)
    bits[[v * (v - 1) // 2 + u for u, v in g.edges()]] = 1
    groups = np.packbits(bits.reshape(-1, 6), axis=1).ravel() >> 2
    return _size_field(n) + (groups + 63).tobytes().decode("ascii")


def decode_graph6(s: str) -> Graph:
    """Parse one graph6 line (optionally ">>graph6<<"-prefixed)."""
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    lo, hi = min(s), max(s)
    if ord(lo) < 63 or ord(hi) > 126:
        ch = lo if ord(lo) < 63 else hi
        raise ValueError(f"character {ch!r} outside graph6 range 63..126")
    prefix, digits, _ = next(form for form in reversed(_SIZE_FORMS)
                             if s.startswith(form[0]))
    head = len(prefix) + digits
    if len(s) < head:
        raise ValueError("truncated graph6 size field")
    n = 0
    for ch in s[len(prefix):head]:
        n = (n << 6) | (ord(ch) - 63)
    body = s[head:]
    if n > _MAX_N:
        raise ValueError(f"graph6 order {n} exceeds supported maximum {_MAX_N}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(
            f"graph6 body has {len(body)} characters, expected {need} for n={n}")
    groups = np.frombuffer(body.encode("ascii"), dtype=np.uint8) - 63
    bits = np.unpackbits(groups[:, None] << 2, axis=1, count=6).ravel()[:nbits]
    pos = np.flatnonzero(bits)
    # bit p is the pair (u, v) with v(v-1)/2 <= p < v(v+1)/2
    firsts = np.arange(n) * (np.arange(n) - 1) // 2
    v = np.searchsorted(firsts, pos, side="right") - 1
    u = pos - firsts[v]
    # Pairs arrive by column v, then row u, so each vertex gets its smaller
    # neighbours (from its own column) in order before its larger ones.
    nbrs = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return Graph._from_adj(tuple(map(tuple, nbrs)))


# cycle notation after spaces are dropped: ASCII digits only, since \d
# and int() also take other Unicode digits
_CYCLES = re.compile(r"(?:\((?:[0-9]+(?:,[0-9]+)*)?\))+")


def parse_permutation(s: str, degree: int) -> tuple:
    """Parse 1-based disjoint cycles like "(2,4)(6,12,17)" on 1..degree.

    The result is the image tuple on 0..degree-1: point x goes to
    result[x].  "()" is the identity.  Entries are ASCII digits, and
    spaces are ignored.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    text = s.replace(" ", "")
    if not _CYCLES.fullmatch(text):
        raise ValueError(f"not cycle notation: {s!r}")
    mapping = list(range(degree))
    used = set()
    for inner in re.findall("[0-9,]+", text):
        cyc = [int(tok) for tok in inner.split(",")]
        for x in cyc:
            if not (1 <= x <= degree):
                raise ValueError(f"entry {x} outside 1..{degree}")
            if x in used:
                raise ValueError(f"entry {x} repeated")
            used.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            mapping[a - 1] = b - 1
    return tuple(mapping)


def write_report(report, g_id: str) -> str:
    """One JSON line per graph: id, n, wiener, soltes_count, soltes_vertices, alpha."""
    count = len(report.soltes_set)
    if count == 0:
        alpha = f"0/{report.n}"
    else:
        alpha = f"{report.alpha.numerator}/{report.alpha.denominator}"
    return json.dumps({
        "id": g_id,
        "n": report.n,
        "wiener": report.wiener,
        "soltes_count": count,
        "soltes_vertices": list(report.soltes_set),
        "alpha": alpha,
    })
