"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../mls-parent --change . \
        --workload vectors objects --seeds 11-20 --seconds 20

Each workload is compared in turn, with the same seeds.  Each pair runs
`perfbench/run.py --trace 0` once in each checkout with the same seed,
the parent first on even pairs (0, 2, ...) and the change first on odd
ones, so slow drift of the machine falls on both sides.  For every
end-to-end metric in the change's BENCHMARK.json it prints the median
and quartiles of each side, the change against the parent's median, how
many pairs the change won, and a verdict: "unresolved" when the parent's
interquartile range is wider than the gap between the medians, "same"
when there is no gap, otherwise "better" or "worse".  With `--trace` the
pairs are traced runs (`--trace 1`) and the comparison covers the
`per_layer` metrics instead, such as `reader.parse_s`; traced times
include the tracer's overhead, so compare them only with each other.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(specs) -> list:
    """`11 12 13`, `11-20` or a mix of both."""
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs) -> tuple:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics, parent_runs, change_runs) -> list:
    def side(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    n = len(parent_runs)
    width = max(len("metric"), *(len(m["name"]) for m in metrics))
    lines = [f"{'metric':<{width}} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
             f"{'change':>7} {'wins':>6}  verdict"]
    for m in metrics:
        name, lower_is_better = m["name"], m["better"] == "lower"
        ps = [r["metrics"][name]["value"] for r in parent_runs]
        cs = [r["metrics"][name]["value"] for r in change_runs]
        pq, cq = quartiles(ps), quartiles(cs)
        wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(ps, cs))
        gap = cq[1] - pq[1]
        if gap == 0:
            verdict = "same"
        elif pq[2] - pq[0] > abs(gap):
            verdict = "unresolved"
        else:
            verdict = "better" if (gap < 0) == lower_is_better else "worse"
        change = f"{100 * gap / pq[1]:>+6.1f}%" if pq[1] else f"{'n/a':>7}"
        lines.append(f"{name:<{width}} {side(pq):<34} {side(cq):<34} "
                     f"{change} {wins:>3}/{n:<2}  {verdict}")
    failed = [sum(r["failed"] for r in runs) for runs in (parent_runs, change_runs)]
    attempted = [sum(r["attempted"] for r in runs) for runs in (parent_runs, change_runs)]
    lines.append(f"failed units: parent {failed[0]}/{attempted[0]}, change {failed[1]}/{attempted[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True, nargs="+", help="one or more workloads")
    parser.add_argument("--seeds", required=True, nargs="+", help="seeds, e.g. 11-20 or 11 12")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of traced runs")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = "reader.parse_s" if args.trace else "units_per_s"  # in the progress lines
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], workload, seed, args.seconds, args.trace)
                runs[side].append(result)
                value = result["metrics"][shown]["value"]
                print(f"# {workload} pair {i} seed {seed} {side}: {shown} {value:.4g}", flush=True)
        print(f"workload {workload}, {len(runs['parent'])} pairs, --seconds {args.seconds:g}"
              + (", traced" if args.trace else ""))
        print("\n".join(summarize(metrics, runs["parent"], runs["change"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
