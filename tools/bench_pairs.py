"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B --seconds S [--out FILE]

For each seed from A to B, one pair of runs of

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

one in each checkout, each run its own interpreter started in that
checkout.  The side that goes first alternates: the parent in the first
pair, the change in the second, and so on.  For each metric of the runs'
last JSON line, one line is printed: the first quartile, median and third
quartile on each side (`statistics.quantiles`, inclusive method), the
pairs in which the change is better, and the change of the median in per
cent.  Which way is better is read from CHANGE_DIR's `BENCHMARK.json`.
With `--out FILE`, the workload's record (seconds, seeds, `all_correct`,
`failed`, `summary` and every run) is written under `workloads` in FILE,
and the rest of FILE is kept.  For example:

    python3 tools/bench_pairs.py ../parent . --workload nf-numeric --seeds 1-10 --seconds 20
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def plan(seeds):
    """(seed, pair, sides in running order) for each pair."""
    order = ("parent", "change")
    return [(seed, pair, order if pair % 2 == 0 else order[::-1])
            for pair, seed in enumerate(seeds)]


def run_one(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in `checkout`."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: bench/run.py failed in {checkout} (exit {proc.returncode})"
                         f":\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(runs, better) -> dict:
    """Per metric, the quartiles on each side, the pairs the change wins and
    the change of the median in per cent.  `runs` are the run records, each
    with `pair`, `side` and one value per metric; `better` maps a metric to
    "lower" or "higher" (lower when it is not named)."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    metrics = [k for k in runs[0] if k not in
               ("seed", "pair", "side", "first", "correct", "attempted", "failed")]
    summary = {}
    for name in metrics:
        sign = -1 if better.get(name, "lower") == "higher" else 1
        values = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        quartiles = {side: (statistics.quantiles(v, n=4, method="inclusive")
                            if len(v) > 1 else v * 3) for side, v in values.items()}
        summary[name] = {
            "parent_q1_median_q3": quartiles["parent"],
            "change_q1_median_q3": quartiles["change"],
            "change_better_pairs": sum(sign * (p["change"][name] - p["parent"][name]) < 0
                                       for p in pairs),
            "pairs": len(pairs),
            "median_change_pct": (quartiles["change"][1] / quartiles["parent"][1] - 1) * 100,
        }
    return summary


def format_summary(summary) -> list:
    def three(q):
        return "/".join(f"{v:.4g}" for v in q)

    return [f"{name:14s} parent {three(s['parent_q1_median_q3'])}  "
            f"change {three(s['change_q1_median_q3'])}  "
            f"better in {s['change_better_pairs']} of {s['pairs']}  "
            f"median {s['median_change_pct']:+.1f} %"
            for name, s in summary.items()]


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    dirs = {"parent": args.parent, "change": args.change}
    runs = []
    for seed, pair, order in plan(args.seeds):
        for side in order:
            result = run_one(dirs[side], args.workload, seed, args.seconds)
            runs.append({"seed": seed, "pair": pair, "side": side, "first": order[0],
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            print(f"seed {seed} {side}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    summary = summarize(runs, better)
    print("\n".join(format_summary(summary)))
    if args.out:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        record.setdefault("workloads", {})[args.workload] = {
            "seconds": args.seconds, "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
