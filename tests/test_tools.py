"""The command-line tools under `tools/`: `measure_run.py` runs one command
and prints one JSON line about it; `profile_op.py` profiles one workload."""

import hashlib
import json
import pathlib
import subprocess
import sys

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
