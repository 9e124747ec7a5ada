"""Run one workload of the hopfzero benchmark and print its metrics.

    python3 bench/run.py --workload h2-symbolic --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the engine is imported from the
checkout's `src/`.  The workload runs single-threaded in this process: it is
set up several times, then whole passes of its operations run until
`--seconds` have gone by, each operation on a cold elimination cache; the
outputs of the first pass are then checked, outside the timed region.  Times
are scaled to a fixed machine speed (see `hzbench/speed.py`).  The last line printed is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: with `--trace 0` the end-to-end metrics, with `--trace 1` the
per-layer ones of a run with layer spans on.  Details go to `bench/out/`.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7


def import_engine():
    """Import `hopfzero` afresh, so that each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "hopfzero" or n.startswith("hopfzero.")]:
        del sys.modules[name]
    hz = importlib.import_module("hopfzero")
    if not pathlib.Path(hz.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hopfzero was imported from {hz.__file__}, not from {SRC}")
    return hz


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopfzero" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from hzbench.speed import REFERENCE_S, SpeedProbe, reference_time
    from hzbench.tracing import Tracer, unit
    from hzbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    probe = SpeedProbe()
    tracer = Tracer(probe.clock) if args.trace else None

    setup_times, scaled_setup_times, setup_ops = [], [], []
    start = _START
    for rep in range(SETUP_REPEATS):
        if rep:
            start = time.perf_counter()
        hz = import_engine()
        if tracer:
            tracer.install(hz)
            setup_ops.append(f"setup{rep}")
            tracer.begin(setup_ops[-1])
        inputs = workload.setup(hz, args.seed, OUT_DIR)
        setup_times.append(time.perf_counter() - start)
        scale = REFERENCE_S / statistics.fmean(reference_time() for _ in range(3))
        scaled_setup_times.append(setup_times[-1] * scale)
        if tracer:
            tracer.end(hz, scale)

    first = {}  # label -> result of the first pass
    failures = []
    attempted = failed = 0
    pass_times, scaled_pass_times = [], []
    op_times = {}
    loop_start = time.perf_counter()
    while not pass_times or time.perf_counter() - loop_start < args.seconds:
        if tracer:
            tracer.begin(f"pass{len(pass_times)}")
        total = scaled_total = 0.0
        for label, call in workload.operations(hz, inputs):
            hz.homological.clear_cache()
            gc.collect()
            attempted += 1
            try:
                with probe.timed() as timing:
                    result = call()
            except Exception:  # a failed operation is counted; the run goes on
                failed += 1
                traceback.print_exc()
                continue
            finally:
                total += timing.raw
                scaled_total += timing.scaled
                op_times.setdefault(label, []).append([timing.raw, timing.scaled])
            if not pass_times:
                first[label] = result
            elif label in first and result != first[label]:
                failures.append(f"{label}: pass {len(pass_times)} differs from pass 0")
        pass_times.append(total)
        scaled_pass_times.append(scaled_total)
        if tracer:
            tracer.end(hz, scaled_total / total)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        failures += workload.check(hz, inputs, first)
    except Exception:  # a check that crashes is a failed check
        failures.append("check raised:\n" + traceback.format_exc())
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    wall_s = statistics.median(scaled_pass_times)
    setup_s = statistics.median(scaled_setup_times)
    if tracer:
        metrics = tracer.layer_metrics(setup_ops)
        tracer.write(OUT_DIR / f"{args.workload}.spans.jsonl",
                     {"workload": args.workload, "seed": args.seed})
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": peak_rss_mib}
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units.get(name) or unit(name)}
                          for name, value in metrics.items()}}
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "setup_times": setup_times, "scaled_setup_times": scaled_setup_times,
               "pass_times": pass_times, "scaled_pass_times": scaled_pass_times,
               "op_times": op_times, "failures": failures, "result": result}
    suffix = ".trace" if tracer else ""
    (OUT_DIR / f"{args.workload}{suffix}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload}, seed {args.seed}, trace {args.trace}: {len(pass_times)} passes; "
          f"medians scaled (raw): wall_s {wall_s:.3f} ({statistics.median(pass_times):.3f}), "
          f"setup_s {setup_s:.4f} ({statistics.median(setup_times):.4f})")
    for label, times in op_times.items():
        print(f"  {label:28s} {statistics.median(t[1] for t in times):9.3f} s scaled, "
              f"{statistics.median(t[0] for t in times):9.3f} s raw (median of {len(times)})")
    print(f"check: {'passed' if not failures else f'{len(failures)} failures'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
