"""The benchmark's input makers run against the package as it stands.

perfbench/workloads.py builds the scan stream's known answers with
build_two_soltes and build_many_soltes and reads plan.labels, and pins the
ends of the construct sweep's q windows, so a change to the builder's
interface or answers fails here rather than as a failed benchmark run.
"""

import importlib
import pathlib

import pytest

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
