"""Spans around calls into the soltes modules, recorded from outside.

The tracer replaces a function in every soltes module that binds it (the
defining module and each module that imported it by name) with a wrapper
that records one span: name, start, end, parent and an optional amount
(bytes, vertices, elements, classes).  Spans stay in memory until the run
ends.  Only the standard library is imported here, so the measured
process still imports nothing but soltes.

A span opened on a thread with no open span of its own (a worker of the
CLI's or soltes_report's thread pool) takes as parent the innermost span
open on the main thread, which is the call that is waiting on the pool.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from time import perf_counter


# (defining module, function, span name, amount taken from the call).  The
# amount is a function of (args, result); None records no amount.
TARGETS = (
    ("soltes.enumeration", "_mask_keys", "enumeration.mask_keys", None),
    ("soltes.enumeration", "_isomorphic", "enumeration.isomorphic", None),
    ("soltes.enumeration", "gen_regular", "enumeration.gen_regular", None),
    ("soltes.enumeration", "classify_table", "enumeration.classify_table",
     None),
    ("soltes.core", "wiener", None, None),
    ("soltes.core", "delete_vertex", "core.delete_vertex", None),
    ("soltes.core", "soltes_report", "core.soltes_report",
     lambda args, result: args[0].n),
    ("soltes.core", "profile", "core.profile", None),
    ("soltes.core", "is_connected", "core.is_connected", None),
    ("soltes.core", "is_biconnected", "core.is_biconnected", None),
    ("soltes.cayley", "group_closure", "cayley.group_closure",
     lambda args, result: len(result)),
    ("soltes.cayley", "cayley_graph", "cayley.cayley_graph", None),
    ("soltes.cayley", "verify_entry", "cayley.verify_entry", None),
    ("soltes.transforms", "truncate", "transforms.truncate",
     lambda args, result: result.n),
    ("soltes.transforms", "line_graph", "transforms.line_graph",
     lambda args, result: result.n),
    ("soltes.plan", "sequence_for", "plan.sequence_for", None),
    ("soltes.plan", "modify", "plan.modify", None),
    ("soltes.plan", "q_range", "plan.q_range", None),
    ("soltes.families", "g_t_r", "families.base", None),
    ("soltes.builder", "build_two_soltes", "builder.build", None),
    ("soltes.builder", "build_many_soltes", "builder.build", None),
    ("soltes.builder", "verify_construction", "builder.verify_construction",
     None),
    ("soltes.codec", "decode_graph6", "codec.decode_graph6",
     lambda args, result: len(args[0])),
    ("soltes.codec", "encode_graph6", "codec.encode_graph6",
     lambda args, result: len(result)),
    ("soltes.codec", "write_report", "codec.write_report", None),
    ("soltes.cli", "main", "cli.main", None),
)


def _wiener_band(args):
    n = args[0].n
    if n < 16:
        return "core.wiener.n_lt16"
    if n < 64:
        return "core.wiener.n16_63"
    return "core.wiener.n_ge64"


def rebind(original, replacement):
    """Point every soltes module attribute bound to original at replacement.

    Returns the (module, attribute) pairs changed, for restore().
    """
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "soltes" or name.startswith("soltes.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def _covered(start, end, kids):
    """Length of [start, end] covered by the union of the kids' spans."""
    covered = 0.0
    lo = hi = None
    for kid in sorted(kids, key=lambda k: k[1]):
        a, b = max(kid[1], start), min(kid[2], end)
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    if hi is not None:
        covered += hi - lo
    return covered


def restore(changed, original):
    for module, attr in changed:
        setattr(module, attr, original)


class Tracer:
    """Installs the wrappers, holds the spans, and summarises them."""

    def __init__(self):
        # span: [name, start, end, parent span or None, amount]
        self.spans = []
        self.absent = []
        self._main = threading.main_thread().ident
        self._main_stack = []
        self._local = threading.local()
        self._installed = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, stack):
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = [name, perf_counter(), 0.0, parent, 0]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span, stack):
        span[2] = perf_counter()
        stack.pop()

    def _wrap(self, fn, name, amount):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = tracer._open(name or _wiener_band(args), stack)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, stack)
            if amount is not None:
                span[4] = amount(args, result)
            return result
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # One span per next(): the caller's work between items stays
            # outside; the amount is the number of items (one or none).
            it = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                span = tracer._open(name, stack)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(span, stack)
                span[4] = 1
                yield item
        return traced

    def install(self):
        for modname, attr, name, amount in TARGETS:
            module = sys.modules.get(modname)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.absent.append(name or "core.wiener")
                continue
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(fn, name)
            else:
                wrapper = self._wrap(fn, name, amount)
            self._installed.append((rebind(fn, wrapper), fn))

    def uninstall(self):
        for changed, fn in reversed(self._installed):
            restore(changed, fn)
        self._installed = []

    def summary(self):
        """Per span name: calls, total s, self s, amount; plus wiener calls
        made directly under soltes_report."""
        children = {}
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                children.setdefault(id(parent), []).append(span)
        out = {}
        report_evals = 0
        for span in self.spans:
            name, start, end = span[0], span[1], span[2]
            covered = _covered(start, end, children.get(id(span), ()))
            agg = out.setdefault(name, [0, 0.0, 0.0, 0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered
            agg[3] += span[4]
            parent = span[3]
            if (name.startswith("core.wiener.") and parent is not None
                    and parent[0] == "core.soltes_report"):
                report_evals += 1
        stats = {name: {"calls": c, "s": s, "self_s": se, "amount": a}
                 for name, (c, s, se, a) in out.items()}
        return stats, report_evals

    def dump(self, path):
        """Write the spans as JSON lines:
        [name, start, end, parent index or -1, amount]."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                parent = span[3]
                fh.write(json.dumps([span[0], span[1], span[2],
                                     index[id(parent)] if parent is not None
                                     else -1, span[4]]))
                fh.write("\n")
