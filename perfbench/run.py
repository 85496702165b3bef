"""Benchmark of the soltes CLI: four workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {census,scan,catalog,construct}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (src/soltes must be there).  This
process makes the seeded inputs, times set-up in fresh interpreters, starts
the measured process (worker.py, which imports only soltes) and checks its
outputs apart from the program.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1.  An operation is one CLI call; a run is whole rounds of them.
Diagnostics go to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("census", "scan", "catalog", "construct")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0


# metric -> (unit, better, span name, field), the field one of calls, s,
# self_s (span time not covered by child spans) or amount.  Values are per
# round.  The span names are those of spans.TARGETS.
PER_LAYER = {
    "enumeration.leaves": ("count", "lower", "enumeration.mask_keys", "calls"),
    "enumeration.classes": ("count", "higher", "enumeration.gen_regular", "amount"),
    "enumeration.leaves_per_class": ("ratio", "lower", "enumeration.mask_keys", None),
    "enumeration.iso_tests": ("count", "lower", "enumeration.isomorphic", "calls"),
    "enumeration.mask_keys.s": ("s", "lower", "enumeration.mask_keys", "s"),
    "enumeration.isomorphic.s": ("s", "lower", "enumeration.isomorphic", "s"),
    "enumeration.gen_regular.self_s": ("s", "lower", "enumeration.gen_regular",
                                       "self_s"),
    "enumeration.classify_table.self_s": ("s", "lower",
                                          "enumeration.classify_table", "self_s"),
    **{f"core.wiener.{band}.{field}": (unit, "lower", f"core.wiener.{band}", field)
       for band in ("n_lt16", "n16_63", "n_ge64")
       for field, unit in (("calls", "count"), ("s", "s"))},
    "core.delete_vertex.calls": ("count", "lower", "core.delete_vertex", "calls"),
    "core.delete_vertex.s": ("s", "lower", "core.delete_vertex", "s"),
    "core.soltes_report.calls": ("count", "lower", "core.soltes_report", "calls"),
    "core.soltes_report.self_s": ("s", "lower", "core.soltes_report", "self_s"),
    "core.soltes_report.vertices": ("count", "higher", "core.soltes_report",
                                    "amount"),
    "core.evals_per_vertex": ("ratio", "lower", "core.soltes_report", None),
    "core.profile.s": ("s", "lower", "core.profile", "s"),
    "core.is_connected.s": ("s", "lower", "core.is_connected", "s"),
    "core.is_biconnected.s": ("s", "lower", "core.is_biconnected", "s"),
    "cayley.group_closure.s": ("s", "lower", "cayley.group_closure", "s"),
    "cayley.closure_elements": ("count", "lower", "cayley.group_closure", "amount"),
    "cayley.cayley_graph.s": ("s", "lower", "cayley.cayley_graph", "s"),
    "cayley.verify_entry.self_s": ("s", "lower", "cayley.verify_entry", "self_s"),
    "transforms.truncate.s": ("s", "lower", "transforms.truncate", "s"),
    "transforms.line_graph.s": ("s", "lower", "transforms.line_graph", "s"),
    "transforms.vertices_out": ("count", "higher", "transforms", None),
    "plan.sequence_for.s": ("s", "lower", "plan.sequence_for", "s"),
    "plan.modify.calls": ("count", "lower", "plan.modify", "calls"),
    "plan.q_range.s": ("s", "lower", "plan.q_range", "s"),
    "families.base.s": ("s", "lower", "families.base", "s"),
    "builder.build.self_s": ("s", "lower", "builder.build", "self_s"),
    "builder.verify_construction.self_s": ("s", "lower",
                                           "builder.verify_construction", "self_s"),
    "codec.decode_graph6.s": ("s", "lower", "codec.decode_graph6", "s"),
    "codec.decode_graph6.bytes": ("bytes", "higher", "codec.decode_graph6",
                                  "amount"),
    "codec.encode_graph6.s": ("s", "lower", "codec.encode_graph6", "s"),
    "codec.encode_graph6.bytes": ("bytes", "higher", "codec.encode_graph6",
                                  "amount"),
    "codec.write_report.s": ("s", "lower", "codec.write_report", "s"),
    "cli.main.self_s": ("s", "lower", "cli.main", "self_s"),
    "trace.wall_s": ("s", "lower", "trace", None),
    "trace.spans": ("count", "lower", "trace", None),
}

END_TO_END = {
    "wall_s": "s", "graphs_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _env():
    env = dict(os.environ)
    env.pop("SOLTES_THREADS", None)  # the CLI's own default pool
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _setup_once(env):
    """Seconds from starting a fresh interpreter to soltes.cli imported."""
    code = "import sys, soltes.cli; sys.stdout.write('ready'); sys.stdout.flush()"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        ready = proc.stdout.read(5)
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        _wait(proc, 60)
    if ready != b"ready" or proc.returncode != 0:
        _fail("a fresh interpreter could not import soltes.cli")
    return elapsed


def _setup_s(env, samples):
    """Median set-up seconds over fresh interpreters."""
    _setup_once(env)  # writes the bytecode caches; users pay that once
    return statistics.median(_setup_once(env) for _ in range(samples))


def _wait(proc, timeout):
    """Exit code of proc; kills it and fails the run when it overruns."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail(f"{proc.args[1]!r} ran past its deadline")


def _run_worker(spec_path, result_path, env, deadline):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env, cwd=ROOT)
    code = _wait(proc, max(1.0, deadline - time.monotonic()))
    if code != 0:
        _fail(f"the measured process exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _per_layer(result):
    stats, rounds = result["trace"], len(result["rounds"])
    absent = result["absent"]

    def get(span, field):
        return stats.get(span, {}).get(field, 0) / rounds

    derived = {
        "enumeration.leaves_per_class": lambda: (
            get("enumeration.mask_keys", "calls")
            / max(1, get("enumeration.gen_regular", "amount"))),
        # W(G-v) evaluations: wiener calls directly under soltes_report,
        # less the one W(G) per report.
        "core.evals_per_vertex": lambda: (
            (result["report_evals"] / rounds - get("core.soltes_report", "calls"))
            / max(1, get("core.soltes_report", "amount"))),
        "transforms.vertices_out": lambda: (
            get("transforms.truncate", "amount")
            + get("transforms.line_graph", "amount")),
        "trace.wall_s": lambda: statistics.median(
            r["wall_s"] for r in result["rounds"]),
        "trace.spans": lambda: result["spans"] / rounds,
    }
    metrics = {}
    for name, (unit, _, span, field) in PER_LAYER.items():
        if any(span == a or span.startswith(a + ".") for a in absent):
            continue  # the wrapped helper no longer exists
        value = derived[name]() if field is None else get(span, field)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _outputs_per_round(spec):
    """Census classes, scanned graphs, catalog transforms or built graphs."""
    expect = spec["expect"]
    if "rows" in expect:
        from workloads import OEIS
        return sum(OEIS[tuple(row)] for row in expect["rows"])
    if "stream" in expect:
        return len(expect["stream"])
    return len(spec["calls"])


def measure(workload, seed, seconds, trace, small=False):
    """Make the inputs and run the measured process.

    Returns (spec, worker result, median set-up seconds or None when tracing).
    """
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "soltes" / "cli.py").is_file():
        _fail(f"no soltes sources under {SRC}; run from a source checkout")
    import workloads

    env = _env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        spec = workloads.make(workload, seed, str(workdir), str(SRC), small)
        spec.update(seconds=seconds, trace=bool(trace),
                    spans_path=str(OUT / f"spans-{workload}.jsonl"))
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setup = None if trace else _setup_s(env, SETUP_SAMPLES)
        result = _run_worker(spec_path, workdir / "result.json", env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if Path(result["soltes_file"]).resolve() != (SRC / "soltes" / "cli.py").resolve():
        _fail(f"the measured process imported {result['soltes_file']}")
    return spec, result, setup


def run(workload, seed, seconds, trace):
    """Run one workload; returns the object that run.py prints last."""
    started = time.monotonic()
    spec, result, setup = measure(workload, seed, seconds, trace)
    import checks

    rounds = result["rounds"]
    n_rounds = len(rounds)
    calls = len(spec["calls"])
    failed = {i for codes in result["codes"]
              for i, code in enumerate(codes) if code != 0}
    for i in sorted(failed):
        print(f"perfbench: call {spec['calls'][i]} failed: "
              f"{result['codes'][0][i]}", file=sys.stderr)
    # Only the calls that did not fail are checked.
    outputs = [None if i in failed else out
               for i, out in enumerate(result["outputs"])]
    errors = checks.CHECKS[workload](spec, outputs, result["captured"], seed)
    if result["mismatched_rounds"]:
        errors.append(f"{result['mismatched_rounds']} rounds gave other outputs "
                      "than the first")
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)

    walls = [r["wall_s"] for r in rounds]
    if trace:
        metrics = _per_layer(result)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "graphs_per_s": _outputs_per_round(spec) * n_rounds / sum(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(f"perfbench: {workload} seed={seed} rounds={n_rounds} "
          f"wall_s={[round(w, 4) for w in walls]} raw wall_s="
          f"{[round(r['raw']['wall_s'], 4) for r in rounds]} readings="
          f"{[round(x, 5) for r in rounds for x in r['readings']]} "
          f"elapsed={time.monotonic() - started:.1f}s",
          file=sys.stderr)
    # A failed call fails in every round, and runs are whole rounds.
    return {"correct": not errors, "attempted": calls * n_rounds,
            "failed": len(failed) * n_rounds, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
