"""Command line behavior: formats, ordering, exit codes."""

import contextlib
import hashlib
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc

import pytest

import soltes.core
from soltes.cli import main
from soltes.codec import decode_graph6, encode_graph6
from soltes.families import complete, cycle, wheel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qrange_output(capsys):
    code, out, _ = run_cli(capsys, "qrange", "--t", "5")
    assert code == 0 and out == "27 38\n"


def test_qrange_usage_error(capsys):
    code, out, err = run_cli(capsys, "qrange", "--t", "0")
    assert code == 2 and out == ""
    assert "t must be at least 1" in err
    # no q fits the gap: exit 1 with construct's message, not a usage error
    for t, message in [("1", "gap -32 at t=1, r=1 is below d_min(1) = 14"),
                       ("2", "gap 30 at t=2, r=1 fits no q in [1, 1]")]:
        code, out, err = run_cli(capsys, "qrange", "--t", t)
        assert code == 1 and out == ""
        assert err == f"infeasible: {message}\n"
        assert run_cli(capsys, "construct", "--t", t)[::2] == (code, err)


def test_sequences_output(capsys):
    code, out, _ = run_cli(capsys, "sequences", "--q", "10")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 67
    assert lines[0] == "(4,8,8)"
    assert lines[-1] == "(2,2,2,2,2,2,2,2,2,2)"


def test_sequences_usage_error(capsys):
    # the walk is lazy, so the error comes from its first step
    code, out, err = run_cli(capsys, "sequences", "--q", "0")
    assert code == 2 and out == ""
    assert "q must be at least 1" in err


def test_sequences_streams_in_bounded_memory():
    # each sequence is printed as the walk reaches it; kept, the q = 100
    # walk's sequences take several MB, and their total grows like q^3
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["sequences", "--q", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2 ** 20


def test_construct_success(capsys):
    code, out, _ = run_cli(capsys, "construct", "--t", "3")
    g6, plan_line = out.splitlines()
    plan = json.loads(plan_line)
    assert code == 0
    assert decode_graph6(g6).n == 50
    assert plan["verification"]["ok"] is True
    assert plan["q"] == 9


@pytest.mark.parametrize("argv,code,err_part", [
    # a q outside the window is a usage error at every r
    (("--t", "3", "--q", "8"), 2, "gap 268 needs q in [9, 9], got 8"),
    # feasible_q guarantees an interval, so its two ends say it all
    (("--t", "20", "--r", "2", "--q", "1"), 2,
     "gap 116295 needs q in [283, 810], got 1"),
    # no q fits the gap, at any r
    (("--t", "2"), 1, "gap 30 at t=2, r=1 fits no q in [1, 1]"),
    (("--t", "3", "--r", "2"), 1, "gap 83 at t=3, r=2 fits no q in [1, 2]"),
    (("--t", "3", "--r", "0"), 2, "needs t >= 1 and r >= 1"),
    (("--t", "3", "--r", "-1"), 2, "needs t >= 1 and r >= 1"),
    (("--t", "0", "--r", "2"), 2, "needs t >= 1 and r >= 1"),
], ids=["t3-q8", "t20-r2-q1", "t2", "t3-r2", "r0", "r-1", "t0-r2"])
def test_construct_exit_codes(capsys, argv, code, err_part):
    got, out, err = run_cli(capsys, "construct", *argv)
    assert got == code and out == ""
    assert err_part in err
    assert len(err) < 100


@pytest.mark.parametrize("argv,digest", [
    (("construct", "--t", "3"),
     "5512e4b52c8cce6cef8639f6a1646da39d75a3556973a47dbbb6bc58eabf3f59"),
    (("construct", "--t", "4", "--q", "21"),
     "a66364ec29fb96fdf3202676e0a8d3e48bf6f8686b828d57aba67a18d492933e"),
    (("construct", "--t", "7", "--q", "50"),
     "4aa6d1faac0c2ad1126a27af017872198c461eb5ab5270ad3c89d582ac12324a"),
    (("construct", "--t", "11", "--q", "110"),
     "515e82939d4c7ce3e9f4946eeab5f5a4cae9b14cfd4bcd45e8589fc64d7f0c3d"),
    (("construct", "--t", "4", "--r", "2"),
     "e97171cda0c1246792691609b8856ef6f3cc70342c16be92a068dd672d3ba4ac"),
    (("construct", "--t", "6", "--r", "3"),
     "000d00c781d2910438e89a978e66cae2100f2d2627d5d0cb1b511eb5e2af2c29"),
    (("sequences", "--q", "17"),
     "e1178e2fc204d233aca4814f652e85642f4716d84c59c78f70a1841d57792c51"),
], ids=["t3", "t4-q21", "t7-q50-joint-tail", "t11-q110-contraction",
        "t4-r2", "t6-r3", "sequences-q17"])
def test_construction_stdout_is_pinned(capsys, argv, digest):
    # sha256 of all of stdout: graph6, plan and verification of a build, or
    # the whole modify walk; any change to the builder's choices moves it
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_fan_success(capsys):
    code, out, _ = run_cli(capsys, "construct", "--t", "4", "--r", "2")
    g6, plan_line = out.splitlines()
    plan = json.loads(plan_line)
    assert code == 0
    assert decode_graph6(g6).n == 96
    assert len(plan["labels"]["centers"]) == 4
    assert plan["r"] == 2


def test_scan_reports_preserve_order_and_survive_errors(tmp_path, capsys):
    lines = [encode_graph6(cycle(11)), "!!notgraph6", encode_graph6(complete(7)),
             encode_graph6(cycle(4))]
    src = tmp_path / "batch.g6"
    src.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "soltes", str(src))
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [r["id"] for r in recs] == lines
    assert recs[0]["alpha"] == "1/1"
    assert "error" in recs[1]
    assert recs[2]["alpha"] == "0/7"
    assert recs[3]["soltes_count"] == 0


def test_scan_prints_records_read_before_a_bad_byte(tmp_path, capsys):
    src = tmp_path / "bad.g6"
    src.write_bytes(encode_graph6(cycle(11)).encode("ascii") + b"\n\xff\n")
    code, out, err = run_cli(capsys, "soltes", str(src))
    assert code == 2 and "ascii" in err
    assert [json.loads(line)["n"] for line in out.splitlines()] == [11]


def test_scan_splits_lines_at_cr_and_crlf(tmp_path, capsys):
    line = encode_graph6(cycle(11))
    src = tmp_path / "cr.g6"
    src.write_text(f"{line}\r{line}\r\n{line}", encoding="ascii", newline="")
    code, out, _ = run_cli(capsys, "soltes", str(src))
    assert code == 0
    assert [json.loads(r)["id"] for r in out.splitlines()] == [line] * 3


def test_threads_option_is_gone(tmp_path, capsys):
    src = tmp_path / "one.g6"
    src.write_text(encode_graph6(cycle(9)) + "\n", encoding="ascii")
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "soltes", str(src)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_tables_csv_and_text(capsys):
    code, out, _ = run_cli(capsys, "tables", "--n", "4", "--r", "3",
                           "--format", "csv")
    assert code == 0 and out.strip() == "1,0,0,0,0,0,0,0,0"
    code, out, _ = run_cli(capsys, "tables", "--n", "6", "--r", "3")
    assert code == 0 and "total=2" in out


def test_tables_negative_degree_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "tables", "--n", "4", "--r", "-2")
    assert code == 2 and out == ""
    assert "negative" in err


def test_tables_refuses_a_row_past_its_scale_cap(capsys):
    # gen_regular(12, 5) runs for minutes; the cap refuses it at once
    code, out, err = run_cli(capsys, "tables", "--n", "12", "--r", "5")
    assert code == 2 and out == ""
    assert "n=12 exceeds the r=5 scale cap of 10" in err


@pytest.mark.parametrize("n,r,code,err_part", [
    (1, 0, 0, ""),
    (3, 0, 0, ""),
    (6, 3, 0, ""),
    (5, 3, 2, "odd n*r"),
    (3, 3, 2, "need n > r"),
    (13, 2, 2, "n=13 exceeds the r=2 scale cap of 12"),
    (17, 3, 2, "n=17 exceeds the r=3 scale cap of 16"),
    (14, 4, 2, "n=14 exceeds the r=4 scale cap of 13"),
    (11, 6, 2, "n=11 exceeds the r=6 scale cap of 10"),
    (12, 9, 2, "n=12 exceeds the r=9 scale cap of 10"),
    (65, 2, 2, "n=65 exceeds the r=2 scale cap of 12"),
])
def test_tables_exit_codes(capsys, n, r, code, err_part):
    # the caps refuse every row before the generator's own n <= 64 limit
    got, out, err = run_cli(capsys, "tables", "--n", str(n), "--r", str(r))
    assert got == code and (out == "") == bool(code)
    assert err_part in err and bool(err) == bool(code)


@pytest.mark.parametrize("r,counts,line", [
    (3, {2: 3, 1: 4}, "509,4,3,0,0,0,0,0,0"),
    (3, {1: 2, 10: 1}, "509,2,0,0,0,0,0,0,0,0,1"),
    (4, {6: 1}, "509,0,0,0,0,0,1"),
])
def test_tables_csv_widens_to_the_largest_count(monkeypatch, capsys, r,
                                                counts, line):
    # a class with more removable vertices than the fixed columns still
    # gets its cell; the fixed width is kept below it
    import soltes.cli as cli
    from soltes.enumeration import TableRow
    monkeypatch.setattr(cli, "classify_table",
                        lambda n, r: TableRow(n, r, 509, counts))
    code, out, _ = run_cli(capsys, "tables", "--n", "14", "--r", str(r),
                           "--format", "csv")
    assert code == 0 and out == line + "\n"


def test_transform_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text(encode_graph6(complete(4)) + "\n" +
                   encode_graph6(cycle(5)) + "\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "transform", "truncate", str(src))
    first, second = out.splitlines()
    assert code == 0
    assert decode_graph6(first).n == 12
    assert "error" in json.loads(second)
    code, out, _ = run_cli(capsys, "transform", "linegraph", str(src))
    assert decode_graph6(out.splitlines()[0]).n == 6


def test_cayley_list(capsys):
    code, out, _ = run_cli(capsys, "cayley", "--list")
    names = out.splitlines()
    assert code == 0
    assert len(names) == 8
    assert "CVT(600,259)" in names


def test_cayley_requires_entry_or_list(capsys):
    # exactly one of the two: argparse refuses none and both
    for argv in (["cayley"], ["cayley", "--list", "--entry", "CVT(324,104)"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.strip()


def test_cayley_unknown_entry(capsys):
    code, _, err = run_cli(capsys, "cayley", "--entry", "CVT(2,2)")
    assert code == 2 and "no catalog entry" in err


def test_only_profile_asks_the_sweep_for_closures(monkeypatch, tmp_path,
                                                  capsys):
    # closure detection costs every level a fifth buffer; the deletion
    # slices of a scan, a build's verification and a catalog check must
    # not pay it, and profile asks for it in its one sweep
    sweep = soltes.core._packed_pair_sums
    calls = []

    def recording(g, removed, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, kwargs))
        return sweep(g, removed, **kwargs)

    monkeypatch.setattr(soltes.core, "_packed_pair_sums", recording)
    src = tmp_path / "scan.g6"
    src.write_text("".join(encode_graph6(g) + "\n" for g in
                           (cycle(11), complete(7), wheel(9).graph)),
                   encoding="ascii")
    for argv in (["soltes", str(src)], ["construct", "--t", "4", "--r", "2"],
                 ["cayley", "--entry", "CVT(324,104)"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
    assert {caller for caller, _ in calls} == {"_wieners", "profile"}
    assert [kw for caller, kw in calls if caller == "profile"] == [
        {"closures": True}]
    assert all(kw == {} for caller, kw in calls if caller != "profile")


def test_console_script_is_installed():
    exe = shutil.which("soltes")
    if exe is None:
        pytest.skip("console script not on PATH")
    r = subprocess.run([exe, "qrange", "--t", "4"], capture_output=True,
                       text=True)
    assert r.returncode == 0
    assert r.stdout.strip() == "17 21"


def test_console_script_entry_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]
    module, _, attr = scripts["soltes"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_module_entry_matches_script():
    r = subprocess.run([sys.executable, "-m", "soltes.cli", "qrange",
                        "--t", "4"], capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout.strip() == "17 21"
