"""`scripts/gc_probe.py` charges the collector's work in benchmark units to
the phases a harness runner calls, and prints it per unit."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
COLUMNS = ["gen0", "gen1", "gen2", "gc_ms", "phase_ms", "freed"]


def probe(workload):
    proc = subprocess.run(
        [sys.executable, "scripts/gc_probe.py", "--workload", workload, "--seed", "11",
         "--scale", "0.05"],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    title, header, *rows = proc.stdout.splitlines()
    assert header.split() == ["phase", *COLUMNS]
    table = {}
    for row in rows:
        phase, cells = row[:16].strip(), row[16:].split()
        table[phase] = dict(zip(COLUMNS, map(float, cells)))
    return title, table


@pytest.mark.parametrize("workload, phases", [
    ("analyze", ["parse_module", "analyze_modules", "render_json"]),
    ("calls", ["parse_program", "Interpreter()", "run_top_level"]),
])
def test_probe_reports_each_phase_per_unit(workload, phases):
    title, table = probe(workload)
    assert title == f"workload {workload}, seed 11, scale 0.05: 5 units, per unit"
    assert list(table) == phases + ["unit"]
    for column in COLUMNS:
        assert all(row[column] >= 0 for row in table.values())
        assert table["unit"][column] == pytest.approx(
            sum(table[p][column] for p in phases), rel=1e-2, abs=1e-3)
    assert table["unit"]["phase_ms"] > 0
    # reading makes no cycle, so a collection while it runs frees nothing
    assert table[phases[0]]["freed"] == 0
