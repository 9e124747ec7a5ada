"""Measure one `hopfzero` command: wall time, peak memory and exit code.

    python3 tools/measure_run.py COMMAND [ARGS...]

Runs `hopfzero COMMAND ARGS...` in this process, through `run_cli`, with the
engine imported from the checkout's `src/`, and prints one JSON line:
`wall_s` (perf_counter seconds of the `run_cli` call), `peak_rss_mib` (the
process's peak resident set, `ru_maxrss`, interpreter and imports included),
`exit` (the command's exit code) and `output_sha256` (of the text the
command prints, so two checkouts' reports can be compared).  Each call is
its own interpreter, so each peak belongs to one command.

An input FILE given as `family37` stands for the symbolic family-37 system of
the benchmark (`bench/hzbench/workloads.py`), written to a temporary file.
For example:

    python3 tools/measure_run.py analyze family37 --max-degree 20 --json
    python3 tools/measure_run.py obstructions family37 --mode JACOBI_H2 --max-degree 18
"""

import hashlib
import json
import pathlib
import resource
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hopfzero import run_cli  # noqa: E402


def main(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    command = list(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if "family37" in argv:
            from hzbench.workloads import FAMILY37
            path = pathlib.Path(tmp) / "family37.hz"
            path.write_text(FAMILY37, encoding="utf-8")
            argv = [str(path) if arg == "family37" else arg for arg in argv]
        start = time.perf_counter()
        code, text = run_cli(argv)
        wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"command": command, "exit": code, "wall_s": round(wall, 3),
                      "peak_rss_mib": round(peak, 1),
                      "output_sha256": hashlib.sha256(text.encode()).hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
