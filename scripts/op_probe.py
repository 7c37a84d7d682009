"""How many Python opcodes and Python calls one benchmark unit takes.

    python3 scripts/op_probe.py --workload calls --seed 11 [--scale 1]

Generates the units of one benchmark workload and runs each once in
this process (`scripts/probe_setup.py`) through the workload's harness
runner: a few warm-up units first, untraced.  Then `sys.settrace`, with
opcode events on and line events off in every frame, counts each
executed opcode and each Python frame entered (a function call or a
generator resumed) while the runner executes each unit, and charges it
to the code object that ran it; the output check runs untraced.  The
probe prints the totals per unit, then the `TOP` functions by opcodes,
each with its opcodes and calls per unit and its share of all opcodes.
A unit whose output the runner rejects is an error.

The counts depend only on the code and the Python version, so unlike
wall time they can show a step of a few percent in one pass.  Calls of
C functions (builtins, methods of `dict` and `list`) are not counted;
their work shows only as the opcode that made the call.  Uses the
standard library only.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from probe_setup import harness, load_units, main, warm_up

TOP = 15  # functions listed


def function_name(code) -> str:
    """`module.qualname` of a code object, without `<locals>` steps
    (before Python 3.11, which added `co_qualname`, `module.name`)."""
    qualname = getattr(code, "co_qualname", code.co_name).replace("<locals>.", "")
    return f"{Path(code.co_filename).stem}.{qualname}"


def count_units(runner, units) -> tuple:
    """(opcodes, calls): Counters by code object over `runner.execute`
    of each unit; the output check after each runs untraced."""
    opcodes, calls = Counter(), Counter()

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    for unit in units:
        sys.settrace(on_call)
        try:
            result = runner.execute(unit)
        finally:
            sys.settrace(None)
        check(runner, unit, result)
    return opcodes, calls


def check(runner, unit, result):
    problem = runner.check(unit, result)
    if problem is not None:
        raise SystemExit(f"a unit failed: {problem}")


def probe_workload(workload: str, seed: int, scale: float) -> tuple:
    """(units run, {function: [opcodes, calls]} totals over the units)."""
    mls, units = load_units(workload, seed, scale)
    runner = harness.runner_for(workload, mls)
    warm_up(lambda unit: check(runner, unit, runner.execute(unit)), units)
    opcodes, calls = count_units(runner, units)
    table = {}
    for code in opcodes.keys() | calls.keys():
        row = table.setdefault(function_name(code), [0, 0])
        row[0] += opcodes[code]
        row[1] += calls[code]
    return len(units), table


def report(workload: str, seed: int, scale: float, n: int, table: dict) -> list:
    total_ops = sum(row[0] for row in table.values())
    total_calls = sum(row[1] for row in table.values())
    lines = [f"workload {workload}, seed {seed}, scale {scale:g}: {n} units, per unit",
             f"opcodes {total_ops / n:.1f}  calls {total_calls / n:.1f}",
             f"{'function':<56}{'opcodes':>12}{'share':>8}{'calls':>10}"]
    ranked = sorted(table.items(), key=lambda item: (-item[1][0], item[0]))
    for name, (ops, calls) in ranked[:TOP]:
        lines.append(f"{name[:55]:<56}{ops / n:>12.1f}{ops / total_ops:>8.1%}{calls / n:>10.1f}")
    return lines


if __name__ == "__main__":
    sys.exit(main(__doc__.split("\n\n")[0], probe_workload, report))
