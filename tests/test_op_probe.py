"""`scripts/op_probe.py` counts the Python opcodes and calls a benchmark
unit takes, overall and per function, and prints them per unit."""

import functools
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def probe(workload):
    proc = subprocess.run(
        [sys.executable, "scripts/op_probe.py", "--workload", workload, "--seed", "11",
         "--scale", "0.05"],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


first_probe = functools.cache(probe)


def test_probe_reports_totals_and_the_leading_functions_per_unit():
    title, totals, header, *rows = first_probe("calls")
    assert title == "workload calls, seed 11, scale 0.05: 5 units, per unit"
    assert header.split() == ["function", "opcodes", "share", "calls"]
    opcodes, calls = float(totals.split()[1]), float(totals.split()[3])
    assert opcodes > calls > 0
    assert len(rows) == 15
    table = {row[:56].strip(): row[56:].split() for row in rows}
    counts = [float(cells[0]) for cells in table.values()]
    assert counts == sorted(counts, reverse=True) and sum(counts) <= opcodes
    # the evaluator's own closures lead a workload of scalar calls
    assert any(name.startswith("interpreter._compile_") for name in table)


def test_the_counts_do_not_depend_on_the_pass():
    """Unlike wall time, two passes of the same units count the same."""
    assert probe("calls") == first_probe("calls")
