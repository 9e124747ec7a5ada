"""Time passes of a workload and split their wall seconds by engine layer.

    python3 tools/layer_times.py WORKLOAD SEED [PASSES]

WORKLOAD is a benchmark workload (`h2-symbolic`, `nf-numeric` or
`cli-corpus`, as in `bench/run.py`), set up from SEED, or `h2-entries-N`:
the entries-only JACOBI_H2 sequence of the symbolic family 37 to z^N
(`analyzers._entries_only`, the report path), `h2-point-N`: the same
at the numeric point (a001, b200, c030) = (1, 2, 3), or `nf-point-N`: the
`orbital_normal_form` of family 37 at that point to index N, the deep
numeric normal form; those read no seed.  One
pass runs untimed to warm the engine.  Then PASSES passes (default 1) run
with three layers timed: the kernel (`gradedpoly._mul_integer`), the slice
solve (`homological._solve_levels`) and the conversion to `Fraction`s
(`gradedpoly._from_integer_terms`).  Each is wrapped by a timer in every
engine module that binds it.  None of the three calls another, so their
times do not overlap.  One line per layer gives its calls and seconds per
pass, the median over the passes; then come the median total of a pass
less the three layers, and that total.  A last line gives the collections
and seconds per pass of the cyclic garbage collector, timed through
`gc.callbacks`; a collection runs inside a layer or the rest, so that line
overlaps the ones above it and is not part of their sum.  The engine is
imported from the checkout's `src/`, the workloads from `bench/hzbench/`.
For example:

    python3 tools/layer_times.py h2-entries-14 0 5
    python3 tools/layer_times.py nf-point-12 0 3
"""

import gc
import pathlib
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import hopfzero as hz  # noqa: E402
import hopfzero.analyzers  # noqa: E402,F401
from hzbench.workloads import WORKLOADS, Workload, family37_field  # noqa: E402

LAYERS = (("gradedpoly", "_mul_integer"), ("homological", "_solve_levels"),
          ("gradedpoly", "_from_integer_terms"))


POINT = {"a001": 1, "b200": 2, "c030": 3}


def entries_workload(index: int, point=None) -> Workload:
    """The entries-only JACOBI_H2 sequence of family 37 to z^index, with
    its parameters bound to `point` when one is given."""
    def setup(hz, seed, out_dir):
        field = family37_field(hz)
        return {"field": field.substitute_params(point) if point else field}

    return Workload(
        setup=setup,
        operations=lambda hz, inputs: [("entries", lambda: hz.analyzers._entries_only(
            inputs["field"], index, hz.Method.JACOBI_H2))],
        check=lambda hz, inputs, results: [])


def normal_form_workload(index: int) -> Workload:
    """The orbital normal form of family 37 at `POINT` to `index`."""
    return Workload(
        setup=lambda hz, seed, out_dir: {"field": family37_field(hz).substitute_params(POINT)},
        operations=lambda hz, inputs: [("normal_form", lambda: hz.orbital_normal_form(
            inputs["field"], index))],
        check=lambda hz, inputs, results: [])


def find_workload(name: str):
    if name in WORKLOADS:
        return WORKLOADS[name]
    prefix, _, index = name.rpartition("-")
    if not (index.isdigit() and int(index) >= 1):
        return None
    if prefix in ("h2-entries", "h2-point"):
        return entries_workload(int(index), POINT if prefix == "h2-point" else None)
    if prefix == "nf-point":
        return normal_form_workload(int(index))
    return None


def time_layers() -> dict:
    """Wrap each layer in every engine module that binds it by a timer and
    return the {name: [calls, seconds]} records the timers add to."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hopfzero"]
    records = {}
    for home, name in LAYERS:
        original = getattr(sys.modules[f"hopfzero.{home}"], name)
        record = records[name] = [0, 0.0]

        def timed(*args, _f=original, _r=record, **kwargs):
            start = perf_counter()
            try:
                return _f(*args, **kwargs)
            finally:
                _r[0] += 1
                _r[1] += perf_counter() - start

        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, timed)
    return records


def time_collections() -> list:
    """Time the cyclic garbage collector through `gc.callbacks` and return
    the [collections, seconds] record the timer adds to."""
    record, start = [0, 0.0], [0.0]

    def timer(phase, info):
        if phase == "start":
            start[0] = perf_counter()
        else:
            record[0] += 1
            record[1] += perf_counter() - start[0]

    gc.callbacks.append(timer)
    return record


def main(argv) -> int:
    workload = find_workload(argv[0]) if len(argv) in (2, 3) else None
    if workload is None:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        print(f"workloads: {', '.join(sorted(WORKLOADS))}, h2-entries-N, h2-point-N, "
              "nf-point-N", file=sys.stderr)
        return 2
    seed, passes = int(argv[1]), int(argv[2]) if len(argv) == 3 else 1
    samples = {name: [] for _, name in LAYERS}
    samples["gc"] = []
    calls = {}
    totals = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workload.setup(hz, seed, pathlib.Path(tmp))
        for _, call in workload.operations(hz, inputs):
            call()
        records = time_layers()
        records["gc"] = time_collections()
        for _ in range(passes):
            for record in records.values():
                record[:] = [0, 0.0]
            start = perf_counter()
            for _, call in workload.operations(hz, inputs):
                call()
            totals.append(perf_counter() - start)
            for name, (n, seconds) in records.items():
                samples[name].append(seconds)
                calls[name] = n
    total = statistics.median(totals)
    layers = {name: statistics.median(s) for name, s in samples.items()}
    collector = layers.pop("gc")
    rest = total - sum(layers.values())
    print(f"{argv[0]}, seed {seed}, median of {passes} pass(es)")
    print(f"{'layer':<22}{'calls':>8}{'seconds':>11}{'share':>8}")
    for name, seconds in layers.items():
        print(f"{name:<22}{calls[name]:>8}{seconds:>11.4f}{seconds / total:>8.1%}")
    print(f"{'rest':<22}{'':>8}{rest:>11.4f}{rest / total:>8.1%}")
    print(f"{'total':<22}{'':>8}{total:>11.4f}{1:>8.1%}")
    print(f"{'gc, within the above':<22}{calls['gc']:>8}{collector:>11.4f}"
          f"{collector / total:>8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
