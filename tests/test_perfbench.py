"""The benchmark's input makers and tracer run against the package as it
stands.

perfbench/workloads.py builds the scan stream's known answers with
build_two_soltes and build_many_soltes and reads plan.labels, and pins the
ends of the construct sweep's q windows, so a change to the builder's
interface or answers fails here rather than as a failed benchmark run.
perfbench/spans.py wraps the functions it names in TARGETS, and a name that
no longer resolves drops its metrics from the traced result line, which
then lacks names that BENCHMARK.json declares.
"""

import importlib
import inspect
import json
import pathlib

import pytest

from soltes import enumeration
from soltes.cli import main
from soltes.plan import q_range

pytest.importorskip("networkx")

ROOT = pathlib.Path(__file__).parents[1]


@pytest.mark.parametrize("name", ["census", "scan", "catalog", "construct"])
def test_workload_inputs_are_made(monkeypatch, tmp_path, name):
    # undone after the test, with the src entry that make() may add
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    spec = workloads.make(name, 1, tmp_path, str(ROOT / "src"), small=True)
    assert spec["calls"]
    if name == "scan":
        labels = {g["label"] for g in spec["expect"]["stream"]}
        assert {"build_two_soltes(3)", "build_two_soltes(4,17)",
                "build_many_soltes(4,2)"} <= labels


def test_construct_workload_calls_succeed(monkeypatch, tmp_path, capsys):
    # every call of a full construct round, so a builder change that would
    # fail the benchmark's construct run fails here first
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    for t, lo in workloads.CONSTRUCT_LO.items():
        assert q_range(t)[0] == lo, t
    for t, hi in workloads.CONSTRUCT_HI.items():
        assert q_range(t)[1] == hi, t
    spec = workloads.make("construct", 1, tmp_path, str(ROOT / "src"))
    assert len(spec["calls"]) == 27
    for argv in spec["calls"]:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert len(out.splitlines()) == 2, argv


def test_span_targets_are_functions_of_their_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    spans = importlib.import_module("perfbench.spans")
    for modname, attr, _, _ in spans.TARGETS:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert inspect.isfunction(fn), (modname, attr)
    # the census capture rebinds the generator that classify_table reaches
    # through its module global
    assert inspect.isgeneratorfunction(enumeration.gen_regular)


@pytest.mark.parametrize("workload", ["census", "construct"])
def test_traced_run_reports_every_declared_metric(monkeypatch, workload):
    # one short traced run of the small inputs, in a worker process; its
    # files go under the ignored .perfbench_out/
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    _, result, _ = run.measure(workload, 1, 0.1, 1, small=True)
    assert result["absent"] == []
    assert all(code == 0 for codes in result["codes"] for code in codes)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["per_layer"]
    assert sorted(run._per_layer(result)) == sorted(m["name"]
                                                    for m in declared)
