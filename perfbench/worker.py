"""The measured process: runs one workload's CLI calls in whole rounds.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds the CLI argument lists of one round, the run length in seconds,
whether to trace, and where to write outputs.  Rounds repeat while the next
one is expected to end within the run length; at least one always runs.
Each call goes through soltes.cli.main at its default settings with stdout
captured.  Speed readings (speed.py) bracket every stretch of calls, and
each round's wall and CPU time are reported both raw and scaled to the
reference speed.  The first round's outputs are written out for the checks;
every later round must reproduce them byte for byte.

This process imports soltes and the standard library only (plus the
benchmark's own tracer when tracing), so input generation and the
correctness checks add nothing to its time, CPU or memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import speed

# Longest stretch of CLI calls between two speed readings (see speed.py).
READ_EVERY_S = 2.0


def _peak_rss_mb():
    """Peak resident set of this process image.

    VmHWM belongs to the memory map made at exec; ru_maxrss would also count
    the parent's resident set copied in by fork, so it is the fallback only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class _Clock:
    """Wall and CPU time of the CLI calls of a round, raw and scaled.

    In a scaled workload speed readings bracket each stretch of calls; a
    stretch ends at the first call boundary READ_EVERY_S after its first
    reading, and at the end of the round.  The reading that ends one
    stretch starts the next.  Otherwise the scaled times equal the raw.
    """

    def __init__(self, scaled):
        self.scaled_run = scaled
        self.reading = speed.point() if scaled else None
        self.read_at = time.perf_counter()

    def start_round(self):
        self.raw = {"wall_s": 0.0, "cpu_s": 0.0}
        self.scaled = {"wall_s": 0.0, "cpu_s": 0.0}
        self.readings = []
        self.pending = []  # (wall, cpu) of the calls since the last reading

    def add(self, wall, cpu):
        self.pending.append((wall, cpu))
        self.raw["wall_s"] += wall
        self.raw["cpu_s"] += cpu

    def settle_if_due(self):
        if self.pending and time.perf_counter() - self.read_at >= READ_EVERY_S:
            self._settle()

    def _settle(self):
        factor = 1.0
        if self.scaled_run:
            new = speed.point()
            factor = speed.scale(self.reading, new)
            self.readings.append(new)
            self.reading = new
        for wall, cpu in self.pending:
            self.scaled["wall_s"] += wall * factor
            self.scaled["cpu_s"] += cpu * factor
        self.pending = []
        self.read_at = time.perf_counter()

    def end_round(self):
        self._settle()
        return {**self.scaled, "raw": self.raw, "readings": self.readings}


class _Capture:
    """Keeps what gen_regular yields during one round, for the census checks.

    A pass-through on the generator: one list append per class.
    """

    def __init__(self, enumeration):
        from spans import rebind
        self.graphs = []
        self._orig = enumeration.gen_regular
        orig, graphs = self._orig, self.graphs

        def gen_regular(*args, **kwargs):
            batch = []
            graphs.append(batch)
            for g in orig(*args, **kwargs):
                batch.append(g)
                yield g
        self._changed = rebind(orig, gen_regular)

    def close(self):
        from spans import restore
        restore(self._changed, self._orig)
        return [[[list(e) for e in g.edges()] + [g.n] for g in batch]
                for batch in self.graphs]


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import soltes.cli
    import soltes.enumeration

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    calls = spec["calls"]
    rounds, codes = [], []
    first_outputs = digests = captured = None
    mismatches = 0
    clock = _Clock(spec["scaled"])
    started = time.perf_counter()
    while True:
        capture = (_Capture(soltes.enumeration)
                   if spec["capture"] and first_outputs is None else None)
        clock.start_round()
        outputs, round_codes = [], []
        for argv in calls:
            clock.settle_if_due()
            buf = io.StringIO()
            c0, t0 = _cpu(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = soltes.cli.main(list(argv))
            except Exception as exc:  # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), _cpu()
            clock.add(t1 - t0, c1 - c0)
            outputs.append(buf.getvalue())
            round_codes.append(code)
        rounds.append(clock.end_round())
        if capture is not None:
            captured = capture.close()
        codes.append(round_codes)
        digest = [hashlib.sha256(o.encode()).hexdigest() for o in outputs]
        if first_outputs is None:
            first_outputs, digests = outputs, digest
        elif digest != digests:
            mismatches += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) > spec["seconds"]:
            break

    result = {
        "rounds": rounds,
        "codes": codes,
        "mismatched_rounds": mismatches,
        "outputs": first_outputs,
        "captured": captured,
        "peak_rss_mb": _peak_rss_mb(),
        "soltes_file": soltes.cli.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"], result["report_evals"] = tracer.summary()
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        tracer.dump(spec["spans_path"])
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
