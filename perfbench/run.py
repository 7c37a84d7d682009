"""MLS benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload calls --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the benchmark imports `mls` from
`src/`.  With `--trace 0` it reports the end-to-end metrics of an
untraced run; with `--trace 1` it reports per-layer metrics from a
traced run.  Comment lines (`# ...`) give the environment, the sample
count and any failing unit; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  See README.md in this
directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mlsbench import harness  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = Path(__file__).resolve().parent / "out"
MAX_LISTED_FAILURES = 20
# String hashing is pinned: with per-process hash randomization, runs of
# the same input differed by up to 15% in throughput.
HASH_SEED = "0"


def _write_spans(tracer, workload: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-{seed}.json"
    fields = ["id", "layer", "function", "start", "end", "parent", "unit"]
    path.write_text(json.dumps({"fields": fields, "spans": tracer.records}) + "\n")
    return path


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        pinned = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], pinned)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env = harness.provenance(ROOT)
        if args.trace:
            loop, metrics, tracer = harness.run_traced(args.workload, args.seed, args.seconds, root=ROOT)
        else:
            loop, metrics = harness.run_untraced(args.workload, args.seed, args.seconds, root=ROOT)
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of an mls checkout", file=sys.stderr)
        return 2

    attempted, failed = len(loop.latencies), len(loop.failures)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    reps = sorted(len(runs) for runs in loop.by_unit.values())
    print(f"# units={attempted} failed={failed} failed_frac={failed / attempted:.6g}; "
          f"percentiles are over the median latency of each of {len(reps)} distinct units, "
          f"each run {reps[0]}-{reps[-1]} times")
    passes = sorted(loop.clock.passes)
    print(f"# times are scaled to a {harness.calibration.REFERENCE_S * 1e3:g} ms calibration pass; "
          f"measured passes: median {passes[len(passes) // 2] * 1e3:.4g} ms, "
          f"range {passes[0] * 1e3:.4g}-{passes[-1] * 1e3:.4g} ms; unscaled units_per_s "
          f"{len(loop.raw_latencies) / sum(loop.raw_latencies):.6g}")
    for name, error in loop.failures[:MAX_LISTED_FAILURES]:
        print(f"# FAILED {name}: {error}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"# spans: first {len(tracer.records)} of {tracer.next_id} in "
              f"{_write_spans(tracer, args.workload, args.seed).relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
