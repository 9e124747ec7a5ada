"""Profile one pass of a benchmark workload and print where its time goes.

    python3 tools/profile_op.py WORKLOAD SEED [N]

Sets up WORKLOAD (`h2-symbolic`, `nf-numeric` or `cli-corpus`, as in
`bench/run.py`) from SEED, runs one pass of its operations untimed to warm
the engine, then runs one more pass under cProfile and prints the top N
functions (default 25) by self time.  The engine is imported from the
checkout's `src/`, the workloads from `bench/hzbench/`.
"""

import cProfile
import pathlib
import pstats
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import hopfzero as hz  # noqa: E402
from hzbench.workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    if len(argv) not in (2, 3) or argv[0] not in WORKLOADS:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        print(f"workloads: {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    workload, seed = WORKLOADS[argv[0]], int(argv[1])
    top = int(argv[2]) if len(argv) == 3 else 25
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workload.setup(hz, seed, pathlib.Path(tmp))
        for _, call in workload.operations(hz, inputs):
            call()
        profile = cProfile.Profile()
        profile.enable()
        for _, call in workload.operations(hz, inputs):
            call()
        profile.disable()
    pstats.Stats(profile).sort_stats("tottime").print_stats(top)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
