"""Where CPython's cyclic garbage collector runs inside benchmark units.

    python3 scripts/gc_probe.py --workload analyze --seed 11 [--scale 1]

Generates the units of one benchmark workload with
`perfbench/mlsbench/harness.generate` and runs each once in this
process, the way `perfbench/run.py` does: the benchmark's own objects
frozen out of the collector's scans, a few warm-up units first, and a
`gc.collect()` between units, outside what is counted.  A unit is split
into the phases a harness runner calls: for `mls run` workloads
`parse_program`, `Interpreter()` and `run_top_level`; for `analyze`
`parse_module` (every module of the set), `analyze_modules` and
`render_json`.  A `gc.callbacks` hook charges each collection to the
phase it ran in.  For each phase the probe prints, per unit, the
collections of generations 0, 1 and 2, the collector's milliseconds,
the phase's own milliseconds (collections included) and the objects the
collections freed; a collection frees what any earlier phase left
unreachable.  The benchmark's tracer cannot see the collector, hence
this probe.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from mlsbench import harness  # noqa: E402

PHASES = {
    "analyze": ("parse_module", "analyze_modules", "render_json"),
    "run": ("parse_program", "Interpreter()", "run_top_level"),
}
COLUMNS = ("gen0", "gen1", "gen2", "gc_ms", "phase_ms", "freed")


class Probe:
    """Per-phase collector totals, fed by a `gc.callbacks` hook."""

    def __init__(self, phases):
        self.totals = {p: dict.fromkeys(COLUMNS, 0.0) for p in phases}
        self.phase = None  # the phase running now; None between units
        self.started = 0.0

    def on_gc(self, event, info):
        if self.phase is None:
            return
        if event == "start":
            self.started = perf_counter()
            return
        row = self.totals[self.phase]
        row[f"gen{info['generation']}"] += 1
        row["gc_ms"] += (perf_counter() - self.started) * 1e3
        row["freed"] += info["collected"]

    def timed(self, phase, fn, *args):
        self.phase = phase
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.totals[phase]["phase_ms"] += (perf_counter() - t0) * 1e3
            self.phase = None


def unit_steps(workload: str, mls: dict):
    """A function running one unit's phases through `probe.timed`."""
    if workload == "analyze":
        purity = mls["purity"]

        def run_unit(probe, unit):
            modules = probe.timed("parse_module", lambda: [
                purity.parse_module(name, source) for name, source in unit.modules])
            report = probe.timed("analyze_modules", purity.analyze_modules, modules)
            probe.timed("render_json", purity.render_json, report)
    else:
        reader, interpreter = mls["reader"], mls["interpreter"]

        def run_unit(probe, unit):
            exprs = probe.timed("parse_program", reader.parse_program, unit.source)
            interp = probe.timed("Interpreter()", lambda: interpreter.Interpreter(
                stdout=io.StringIO(), stderr=io.StringIO()))
            probe.timed("run_top_level", interp.run_top_level, exprs)
    return run_unit


def probe_workload(workload: str, seed: int, scale: float) -> tuple:
    """(units run, {phase: {column: total over the units}})."""
    mls = harness.load_mls(ROOT)
    units = harness.generate(workload, seed, scale, ROOT)
    run_unit = unit_steps(workload, mls)
    phases = PHASES["analyze" if workload == "analyze" else "run"]
    gc.collect()
    gc.freeze()
    for unit in units[:harness.WARMUP_UNITS]:
        run_unit(Probe(phases), unit)
    probe = Probe(phases)
    gc.callbacks.append(probe.on_gc)
    try:
        for unit in units:
            gc.collect()
            run_unit(probe, unit)
    finally:
        gc.callbacks.remove(probe.on_gc)
        gc.unfreeze()
    return len(units), probe.totals


def report(workload: str, seed: int, scale: float, n: int, totals: dict) -> list:
    lines = [f"workload {workload}, seed {seed}, scale {scale:g}: {n} units, per unit",
             f"{'phase':<16}" + "".join(f"{c:>10}" for c in COLUMNS)]
    rows = dict(totals)
    rows["unit"] = {c: sum(row[c] for row in totals.values()) for c in COLUMNS}
    for phase, row in rows.items():
        lines.append(f"{phase:<16}" + "".join(f"{row[c] / n:>10.4g}" for c in COLUMNS))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="the generators' size factor; 1 is the benchmark's")
    args = parser.parse_args(argv)
    n, totals = probe_workload(args.workload, args.seed, args.scale)
    print("\n".join(report(args.workload, args.seed, args.scale, n, totals)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
