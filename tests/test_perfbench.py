"""The benchmark's input makers run against the package as it stands.

perfbench/workloads.py builds the scan stream's known answers with
build_two_soltes and build_many_soltes and reads plan.labels, so a change to
the builder's interface fails here rather than as a failed benchmark run.
"""

import importlib
import pathlib

import pytest

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
