"""Check the checkers: each must pass real outputs and fail corrupted ones.

    python3 perfbench/checkcheck.py

Runs a small variant of every workload through the measured process, shows
that its checker accepts the outputs, then feeds the checker each output
with one fault planted (a dropped Soltes vertex, a wrong total, a missing
or duplicated graph, a broken construction) and shows that it reports the
fault.  Prints one PASS/FAIL line per case; exits 1 if any case fails.
"""

from __future__ import annotations

import copy
import json
import sys

import networkx as nx

import run
from checks import CHECKS

SEED = 7


def _lines(text, k, edit):
    """text with JSON line k replaced by edit(record)."""
    lines = text.splitlines()
    rec = json.loads(lines[k])
    edit(rec)
    lines[k] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def _census_cases(outputs, captured):
    total_plus = [outputs[0].replace("total=19", "total=20"), outputs[1]]
    counts_off = [outputs[0], outputs[1].replace("counts={", "counts={9: 1, ")]
    dropped = copy.deepcopy(captured)
    dropped[0].pop()
    twin = copy.deepcopy(captured)
    first = twin[0][0]
    n = first[-1]
    twin[0][1] = [[n - 1 - u, n - 1 - v] for u, v in first[:-1]] + [n]
    return [("wrong total", total_plus, captured, "OEIS"),
            ("wrong removable counts", counts_off, captured, "removable counts"),
            ("a class missing", outputs, dropped, "graphs emitted"),
            ("two isomorphic classes", outputs, twin, "isomorphic")]


def _scan_cases(outputs, spec):
    stream = spec["expect"]["stream"]
    text = outputs[0]
    c11 = next(k for k, g in enumerate(stream) if g["label"] == "C_11")
    built = next(k for k, g in enumerate(stream)
                 if g["label"].startswith("build_two"))
    plain = next(k for k, g in enumerate(stream)
                 if g["label"].startswith("random 3"))

    def drop_first(rec):
        rec["soltes_vertices"] = rec["soltes_vertices"][1:]
        rec["soltes_count"] -= 1
        rec["alpha"] = f"{rec['soltes_count']}/{rec['n']}"

    def add_vertex(rec):
        extra = min(set(range(rec["n"])) - set(rec["soltes_vertices"]))
        rec["soltes_vertices"] = sorted(rec["soltes_vertices"] + [extra])
        rec["soltes_count"] += 1

    def wrong_wiener(rec):
        rec["wiener"] += 1

    return [("C_11 with a Soltes vertex dropped",
             [_lines(text, c11, drop_first)], "missing"),
            ("construction with u1 or u2 dropped",
             [_lines(text, built, drop_first)], "missing"),
            ("a vertex reported that is not Soltes",
             [_lines(text, plain, add_vertex)], "reported but"),
            ("wrong Wiener index", [_lines(text, plain, wrong_wiener)],
             "networkx"),
            ("a line missing", ["\n".join(text.splitlines()[:-1]) + "\n"],
             "output lines")]


def _catalog_cases(outputs):
    def edit(fn):
        rec = json.loads(outputs[0])
        fn(rec)
        return [json.dumps(rec)]

    return [("wrong Soltes total",
             edit(lambda r: r["transform"].update(soltes_count=r["transform"]
                                                  ["soltes_count"] - 1)),
             "independent"),
            ("ok false", edit(lambda r: r.update(ok=False)), "not ok"),
            ("wrong order", edit(lambda r: r["transform"].update(order=487)),
             "expected line_graph of order 486")]


def _construct_cases(outputs, spec):
    k = next(i for i, b in enumerate(spec["expect"]["builds"]) if b[0] == 1)
    graph6, plan = outputs[k].splitlines()
    g = nx.from_graph6_bytes(graph6.encode("ascii"))
    g.remove_edge(*next(iter(g.edges())))
    broken = nx.to_graph6_bytes(g, header=False).decode("ascii").strip()
    rec = json.loads(plan)
    centres = rec["labels"]["centers"]
    rec["labels"]["centers"] = [rec["labels"]["v1"]] + centres[1:]
    moved = json.dumps(rec)
    rec = json.loads(plan)
    rec["q"] += 1
    bigger = json.dumps(rec)

    def swap(text):
        return outputs[:k] + [text] + outputs[k + 1:]
    return [("an edge removed", swap(f"{broken}\n{plan}\n"), "not cubic"),
            ("a centre that is not Soltes", swap(f"{graph6}\n{moved}\n"),
             "!= W(H)"),
            ("wrong order for q", swap(f"{graph6}\n{bigger}\n"), "8t+8+2q")]


def main():
    ok = True

    def report(label, errors, want):
        """want is None for clean outputs, else a phrase the errors hold."""
        nonlocal ok
        hits = [e for e in errors if want is not None and want in e]
        passed = not errors if want is None else bool(hits)
        ok &= passed
        detail = (hits or errors or ["no fault reported"])[0]
        print(f"{'PASS' if passed else 'FAIL'} {label}: {detail}")

    for workload in ("census", "scan", "catalog", "construct"):
        spec, result, _ = run.measure(workload, SEED, 0.1, False, small=True)
        check = CHECKS[workload]
        outputs, captured = result["outputs"], result["captured"]
        report(f"{workload} real outputs",
               check(spec, outputs, captured, SEED), None)
        if workload == "census":
            cases = _census_cases(outputs, captured)
        else:
            make = {"scan": lambda: _scan_cases(outputs, spec),
                    "catalog": lambda: _catalog_cases(outputs),
                    "construct": lambda: _construct_cases(outputs, spec)}[workload]
            cases = [(label, out, captured, want) for label, out, want in make()]
        for label, out, cap, want in cases:
            report(f"{workload} {label}", check(spec, out, cap, SEED), want)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
