"""The command-line tools under `tools/`: `measure_run.py` runs one command
and prints one JSON line about it; `profile_op.py` profiles one workload;
`layer_times.py` splits a workload's time by engine layer; `bench_pairs.py`
summarizes paired benchmark runs of two checkouts."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

import hopfzero as hz

from conftest import FAMILY37

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "measure_run.py"


def test_measure_run_reports_the_command(tmp_path):
    args = ["analyze", "family37", "--max-degree", "4", "--json"]
    proc = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert set(record) == {"command", "exit", "wall_s", "peak_rss_mib", "output_sha256"}
    assert record["command"] == args and record["exit"] == 0
    assert record["wall_s"] > 0 and record["peak_rss_mib"] > 0
    # the stand-in `family37` is the family-37 system, and the hash its report's
    path = tmp_path / "family37.hz"
    path.write_text(FAMILY37, encoding="utf-8")
    code, text = hz.run_cli(["analyze", str(path), "--max-degree", "4", "--json"])
    assert record["output_sha256"] == hashlib.sha256(text.encode()).hexdigest()


PROFILE = TOOL.parent / "profile_op.py"


def test_profile_op_prints_the_kernel():
    proc = subprocess.run([sys.executable, str(PROFILE), "nf-numeric", "1", "5"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "_mul_integer" in proc.stdout


def test_profile_op_refuses_an_unknown_workload():
    proc = subprocess.run([sys.executable, str(PROFILE), "no-such-workload", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "python3 tools/profile_op.py WORKLOAD SEED [N]" in proc.stderr


LAYERS = TOOL.parent / "layer_times.py"


def test_layer_times_splits_a_pass_by_layer():
    proc = subprocess.run([sys.executable, str(LAYERS), "h2-entries-4", "0", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the last line, the garbage collector's, overlaps the others (see below)
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[2:-1]}
    assert list(rows) == ["_mul_integer", "_solve_levels", "_from_integer_terms", "rest",
                          "total"]
    # degrees 5 to 7 are solved; the entries-only path leaves the last one
    assert rows["_solve_levels"][0] == "3"
    seconds = {name: float(row[-2]) for name, row in rows.items()}
    assert seconds["total"] > 0 and all(s >= 0 for s in seconds.values())
    assert sum(seconds.values()) - seconds["total"] == pytest.approx(seconds["total"],
                                                                     abs=3e-4)
    proc = subprocess.run([sys.executable, str(LAYERS), "h2-entries-x", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "python3 tools/layer_times.py WORKLOAD SEED [PASSES]" in proc.stderr


def test_layer_times_prints_the_garbage_collector_apart():
    # a symbolic pass allocates enough containers to run collections; the
    # collector's line comes last, its seconds within the total
    proc = subprocess.run([sys.executable, str(LAYERS), "h2-entries-8", "0", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("total") and lines[-1].startswith("gc, within the above")
    collections, seconds, share = lines[-1].split()[-3:]
    assert int(collections) > 0 and 0 < float(seconds) <= float(lines[-2].split()[1])
    assert share.endswith("%")


def test_layer_times_runs_the_numeric_continuation():
    # h2-point-N is the entries-only run at (a001, b200, c030) = (1, 2, 3)
    proc = subprocess.run([sys.executable, str(LAYERS), "h2-point-4", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[2:]}
    assert proc.stdout.startswith("h2-point-4, seed 0")
    assert rows["_solve_levels"][0] == "3" and float(rows["total"][-2]) > 0
    proc = subprocess.run([sys.executable, str(LAYERS), "h2-point-0", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "h2-point-N" in proc.stderr


def test_layer_times_runs_the_numeric_normal_form():
    # nf-point-N is the orbital normal form at (a001, b200, c030) = (1, 2, 3)
    # to index N: degrees 1 to 2N, three slice solves each
    proc = subprocess.run([sys.executable, str(LAYERS), "nf-point-2", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[2:]}
    assert proc.stdout.startswith("nf-point-2, seed 0")
    assert rows["_solve_levels"][0] == "12" and float(rows["total"][-2]) > 0
    proc = subprocess.run([sys.executable, str(LAYERS), "nf-point-0", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "nf-point-N" in proc.stderr


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL.parent / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarizes_run_records():
    # synthetic records: the change is 10 % faster in wall_s in 3 of 4
    # pairs, and a higher-is-better metric wins where it is higher
    bp = _bench_pairs()
    assert bp.parse_seeds("11-14") == [11, 12, 13, 14] and bp.parse_seeds("5") == [5]
    plan = bp.plan([11, 12, 13, 14])
    assert [p[:2] for p in plan] == [(11, 0), (12, 1), (13, 2), (14, 3)]
    assert [p[2][0] for p in plan] == ["parent", "change", "parent", "change"]
    walls = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.9, 1.8, 3.5, 3.6]}
    runs = [{"seed": 11 + pair, "pair": pair, "side": side, "first": "parent",
             "correct": True, "attempted": 5, "failed": 0,
             "wall_s": walls[side][pair], "score": walls[side][pair]}
            for pair in range(4) for side in ("change", "parent")]
    summary = bp.summarize(runs, {"wall_s": "lower", "score": "higher"})
    wall = summary["wall_s"]
    assert wall["parent_q1_median_q3"] == [1.75, 2.5, 3.25]
    assert wall["change_q1_median_q3"] == pytest.approx([1.575, 2.65, 3.525])
    assert (wall["change_better_pairs"], wall["pairs"]) == (3, 4)
    assert wall["median_change_pct"] == pytest.approx(6.0)
    assert summary["score"]["change_better_pairs"] == 1
    lines = bp.format_summary(summary)
    assert lines[0].startswith("wall_s") and "better in 3 of 4" in lines[0]
    assert "median +6.0 %" in lines[0]


def test_bench_pairs_reproduces_a_recorded_summary():
    # the summary of a checked-in record, rebuilt from its runs
    bp = _bench_pairs()
    recorded = json.loads((TOOL.parent.parent / "BENCH_31.json").read_text())
    for workload in recorded["workloads"].values():
        summary = bp.summarize(workload["runs"], {})
        assert summary.keys() == workload["summary"].keys()
        for name, want in workload["summary"].items():
            assert summary[name] == pytest.approx(want)
