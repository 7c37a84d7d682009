"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../mls-parent --change . \
        --workload vectors objects --seeds 11-20 --seconds 20

Each workload is compared in turn, with the same seeds.  Each pair runs
`perfbench/run.py --trace 0` once in each checkout with the same seed,
the parent first on even pairs (0, 2, ...) and the change first on odd
ones, so slow drift of the machine falls on both sides.  No run reads or
writes a bytecode cache, so both checkouts compile from source.  For every
end-to-end metric in the change's BENCHMARK.json it prints the median
and quartiles of each side, the change against the parent's median, how
many pairs the change won (ties count for neither), and a verdict:

- "better": at least 10 pairs, the change won at least nine tenths of
  them, and its median beats the parent's by more than the parent's
  interquartile range (IQR);
- "worse": the change's median is worse than the parent's by more than
  the metric's `bound`, a fraction of the parent's median;
- "unresolved": neither, and the parent's IQR is wider than the bound,
  unless every run of the change beats every run of the parent;
- "within bound": neither, otherwise.

With `--trace` the pairs are traced runs (`--trace 1`) and the
comparison covers the `per_layer` metrics instead, such as
`reader.parse_s`; these have no bound, so "worse" mirrors "better" and
any other reading is "same" (equal medians, no spread) or "unresolved".
Traced times include the tracer's overhead, so compare them only with
each other.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(specs) -> list:
    """`11 12 13`, `11-20` or a mix of both."""
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run.  It writes no bytecode and reads none: its
    cache prefix is a new empty directory, so each side compiles `src/mls`
    from source, and a stale `.pyc` in one checkout cannot change its
    import or its memory."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs) -> tuple:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


MIN_PAIRS = 10  # the fewest pairs that can show a gain
WIN_SHARE = 0.9  # the share of pairs a gain must win


def verdict(ps, cs, lower_is_better: bool, bound=None) -> str:
    """The verdict on one metric from paired runs `ps` (parent) and `cs`
    (change); `bound` is the metric's tolerated loss as a fraction of the
    parent's median, or None for a metric with no bound."""
    sign = -1 if lower_is_better else 1  # a gain is sign * (change - parent) > 0
    pq, cq = quartiles(ps), quartiles(cs)
    iqr, gain = pq[2] - pq[0], sign * (cq[1] - pq[1])
    n = len(ps)
    wins = sum(sign * (c - p) > 0 for p, c in zip(ps, cs))
    losses = sum(sign * (c - p) < 0 for p, c in zip(ps, cs))
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and gain > iqr:
        return "better"
    if bound is None:
        if n >= MIN_PAIRS and losses >= WIN_SHARE * n and -gain > iqr:
            return "worse"
        return "same" if gain == 0 and iqr == 0 else "unresolved"
    allowed = bound * abs(pq[1])
    if -gain > allowed:
        return "worse"
    if iqr > allowed and not all(sign * (c - p) > 0 for c in cs for p in ps):
        return "unresolved"
    return "within bound"


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
        change = f"{100 * gap / pq[1]:>+6.1f}%" if pq[1] else f"{'n/a':>7}"
        lines.append(f"{name:<{width}} {side(pq):<34} {side(cq):<34} "
                     f"{change} {wins:>3}/{n:<2}  "
                     f"{verdict(ps, cs, lower_is_better, m.get('bound'))}")
    failed = [sum(r["failed"] for r in runs) for runs in (parent_runs, change_runs)]
    attempted = [sum(r["attempted"] for r in runs) for runs in (parent_runs, change_runs)]
    lines.append(f"failed units: parent {failed[0]}/{attempted[0]}, change {failed[1]}/{attempted[1]}")
    if n < MIN_PAIRS:
        lines.append(f"{n} pairs: fewer than {MIN_PAIRS}, so no metric reads better")
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
