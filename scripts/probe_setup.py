"""What `scripts/gc_probe.py` and `scripts/op_probe.py` share: the command
line, one workload's benchmark units and their warm-up.

Each probe generates the units of one workload with
`perfbench/mlsbench/harness.generate`, runs the benchmark's warm-up units
once before it measures anything, then runs every unit once in this
process and prints a table per unit.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from mlsbench import harness  # noqa: E402


def load_units(workload: str, seed: int, scale: float) -> tuple:
    """(the loaded `mls` modules, the workload's units)."""
    return harness.load_mls(ROOT), harness.generate(workload, seed, scale, ROOT)


def warm_up(run_unit, units):
    """`run_unit(unit)` once for each of the benchmark's warm-up units."""
    for unit in units[:harness.WARMUP_UNITS]:
        run_unit(unit)


def main(description: str, probe_workload, report, argv=None) -> int:
    """Reads `--workload`, `--seed` and `--scale`, runs
    `probe_workload(workload, seed, scale) -> (units run, totals)` and
    prints the lines of `report(workload, seed, scale, units run, totals)`."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="the generators' size factor; 1 is the benchmark's")
    args = parser.parse_args(argv)
    n, totals = probe_workload(args.workload, args.seed, args.scale)
    print("\n".join(report(args.workload, args.seed, args.scale, n, totals)))
    return 0
