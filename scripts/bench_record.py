"""Record one point of the benchmark trajectory as a JSON file.

    python3 scripts/bench_record.py BENCH_7.json

Runs `perfbench/run.py` from the checkout this script lives in, untraced
and then traced, for each workload on seeds 11, 12 and 13, each run
`SECONDS` long; the length is fixed so that points stay comparable.
For each workload the file holds the median over the seeds of every
end-to-end metric (untraced runs) and of every per-layer count (traced
runs, the metrics whose unit is a count), each with its per-seed values,
plus the failed and attempted units of the untraced runs.  `env` records
the Python version, the machine and the commit as `perfbench/run.py`
reports them; `src_sha256` identifies the sources measured when they
differ from the commit.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12, 13)
SECONDS = 20.0


def run_once(workload: str, seed: int, trace: int) -> tuple:
    """The run's `# env` fields and its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env_line = next(line for line in lines if line.startswith("# env "))
    env = dict(field.split("=", 1) for field in env_line[len("# env "):].split())
    return env, json.loads(lines[-1])


def summarize(runs: list, names: list) -> dict:
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {"median": statistics.median(values), "unit": runs[0]["metrics"][name]["unit"],
                     "runs": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="file to write, e.g. BENCH_7.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"].startswith("count")]
    env, workloads = None, {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = {0: [], 1: []}
        for trace in (0, 1):
            for seed in SEEDS:
                env, result = run_once(name, seed, trace)
                runs[trace].append(result)
                print(f"# {name} seed {seed} trace {trace}: failed {result['failed']}"
                      f"/{result['attempted']}", flush=True)
        workloads[name] = {
            "failed": sum(r["failed"] for r in runs[0]),
            "attempted": sum(r["attempted"] for r in runs[0]),
            "end_to_end": summarize(runs[0], end_to_end),
            "per_layer_counts": summarize(runs[1], counts),
        }
    record = {
        "env": {**env, "machine": platform.machine()},
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
