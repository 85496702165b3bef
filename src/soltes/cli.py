"""Command line front end: scan, construct, tabulate, transform, verify."""

from __future__ import annotations

import argparse
import json
import sys

from .builder import build_many_soltes, verify_construction
from .cayley import catalog_entry, load_catalog, verify_entry
from .codec import decode_graph6, encode_graph6, write_report
from .core import soltes_report
from .enumeration import classify_table
from .plan import Infeasible, enumerate_chain, q_range
from .transforms import line_graph, truncate


def _graph6_lines(path):
    """Stripped non-empty lines; each is decoded as ASCII when it is reached.

    A file that cannot be opened is a ValueError naming it: a usage error.
    """
    try:
        stream = open(path, "rb") if path else sys.stdin.buffer
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    try:
        for raw in stream:
            # a lone CR ends a line too, as under text mode's universal newlines
            for line in raw.decode("ascii").split("\r"):
                line = line.strip()
                if line:
                    yield line
    finally:
        if path:
            stream.close()


def _print_per_line(path, op, out):
    """Print op(line) for each graph6 line, or the line's error record."""
    for line in _graph6_lines(path):
        try:
            record = op(line)
        except ValueError as exc:
            record = json.dumps({"id": line, "error": str(exc)})
        print(record, file=out)
    return 0


def _cmd_soltes(args, out):
    return _print_per_line(
        args.file,
        lambda line: write_report(soltes_report(decode_graph6(line)), line),
        out)


def _cmd_construct(args, out):
    h, plan = build_many_soltes(args.t, args.r, args.q)
    report = verify_construction(h, plan)
    print(encode_graph6(h), file=out)
    print(json.dumps({**plan.to_dict(), "verification": report}), file=out)
    return 0 if report["ok"] else 1


def _cmd_tables(args, out):
    row = classify_table(args.n, args.r)
    if args.format == "csv":
        # the fixed columns, widened to any larger removable count
        width = max([8 if args.r == 3 else 4, *row.counts])
        cells = [str(row.total)] + [str(row.counts.get(k, 0))
                                    for k in range(1, width + 1)]
        print(",".join(cells), file=out)
    else:
        print(repr(row), file=out)
    return 0


def _cmd_qrange(args, out):
    lo, hi = q_range(args.t)
    print(f"{lo} {hi}", file=out)
    return 0


def _cmd_sequences(args, out):
    for layers in enumerate_chain(args.q):
        print("(" + ",".join(map(str, layers)) + ")", file=out)
    return 0


def _cmd_transform(args, out):
    op = truncate if args.kind == "truncate" else line_graph
    return _print_per_line(
        args.file, lambda line: encode_graph6(op(decode_graph6(line))), out)


def _cmd_cayley(args, out):
    if args.list:
        for entry in load_catalog():
            print(entry.name, file=out)
        return 0
    result = verify_entry(catalog_entry(args.entry))
    print(json.dumps(result), file=out)
    return 0 if result["ok"] else 1


def _parser():
    p = argparse.ArgumentParser(
        prog="soltes",
        description="Wiener-index tooling: vertex-deletion scans, cubic "
                    "constructions with prescribed removable vertices, "
                    "regular-graph censuses and catalog checks.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("soltes", help="graph6 lines to JSON report lines")
    s.add_argument("file", nargs="?", default=None)
    s.set_defaults(func=_cmd_soltes)

    s = sub.add_parser("construct", help="build a verified cubic graph")
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--q", type=int, default=None)
    s.add_argument("--r", type=int, default=1)
    s.set_defaults(func=_cmd_construct)

    s = sub.add_parser("tables", help="regular-graph census row")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--format", choices=("text", "csv"), default="text")
    s.set_defaults(func=_cmd_tables)

    s = sub.add_parser("qrange", help="feasible attachment sizes for t")
    s.add_argument("--t", type=int, required=True)
    s.set_defaults(func=_cmd_qrange)

    s = sub.add_parser("sequences", help="all layer sequences for q")
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(func=_cmd_sequences)

    s = sub.add_parser("transform", help="apply a graph operator to graph6 lines")
    s.add_argument("kind", choices=("truncate", "linegraph"))
    s.add_argument("file", nargs="?", default=None)
    s.set_defaults(func=_cmd_transform)

    s = sub.add_parser("cayley", help="rebuild and check a catalog entry")
    one = s.add_mutually_exclusive_group(required=True)
    one.add_argument("--entry")
    one.add_argument("--list", action="store_true")
    s.set_defaults(func=_cmd_cayley)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        # no q fits the gap: the input is sound, the construction is not
        return 1 if isinstance(exc, Infeasible) else 2


if __name__ == "__main__":
    sys.exit(main())
