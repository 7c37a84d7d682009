"""The benchmark's tracer wraps `mls` functions by name (see
`perfbench/mlsbench/tracing.py`).  Installing and uninstalling it here
makes a rename that breaks the benchmark trace fail the test suite."""

import importlib
import io
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from mlsbench import harness, tracing  # noqa: E402

from mls import purity  # noqa: E402
from mls.interpreter import Interpreter  # noqa: E402


def test_the_tracer_installs_and_uninstalls_on_the_current_modules():
    mls = {name: importlib.import_module(f"mls.{name}") for name in harness.MLS_MODULES}
    originals = (purity.render_json, purity.analyze_modules, mls["reader"].parse_program)
    tracer = tracing.Tracer(mls)
    tracer.install()
    try:
        assert purity.render_json.__wrapped__ is originals[0]
        report = purity.analyze_modules([purity.parse_module("m", "f <- function(x) x + 1")])
        text = purity.render_json(report)
    finally:
        tracer.uninstall()
    assert (purity.render_json, purity.analyze_modules, mls["reader"].parse_program) == originals
    assert tracer.counters["purity.report_bytes"] == len(text)
    assert tracer.counters["purity.functions"] == 1
    assert tracer.count["reader.parse_program"] == 1


def test_each_interpreter_counts_its_own_builtin_calls():
    """The tracer wraps each builtin's `fn` in place as `builtins.install`
    returns, so a payload shared between interpreters would be wrapped
    twice and count one call twice."""
    mls = {name: importlib.import_module(f"mls.{name}") for name in harness.MLS_MODULES}
    tracer = tracing.Tracer(mls)
    tracer.install()
    try:
        for interp in (Interpreter(), Interpreter()):
            interp.eval_source("length(1)")
    finally:
        tracer.uninstall()
    assert tracer.count["builtins.length"] == 2


_CALL_PROGRAM = """
fib <- function(n) if (n < 2) n else fib(n - 1) + fib(n - 2)
fact <- function(n) if (n <= 1) 1 else n * fact(n - 1)
acc <- function(k) { s <- 0; i <- 0; while (i < k) { s <- s + i; i <- i + 1 }; s }
fib(10)
fact(8)
acc(25)
"""


def test_the_tracer_sees_every_closure_call_and_promise():
    """The counts a traced benchmark run reports: every closure call goes
    through `call_value`, `match_arguments` and `exec_closure`, and every
    argument of a closure is a promise."""
    mls = {name: importlib.import_module(f"mls.{name}") for name in harness.MLS_MODULES}
    tracer = tracing.Tracer(mls)
    tracer.install()
    try:
        interp = Interpreter(stdout=io.StringIO(), stderr=io.StringIO())
        interp.run_top_level(mls["reader"].parse_program(_CALL_PROGRAM))
    finally:
        tracer.uninstall()
    assert interp.stdout.getvalue() == "[1] 55\n[1] 40320\n[1] 300\n"
    counts = {key: tracer.counters[key] for key in (
        "interpreter.closure_calls", "interpreter.builtin_calls",
        "environment.promises_created", "environment.promises_forced")}
    # fib(10) makes 177 calls, fact(8) 8 and acc(25) one; each result's
    # print() is a closure call, and its UseMethod and print.default two
    # builtin calls
    assert counts == {"interpreter.closure_calls": 189, "interpreter.builtin_calls": 6,
                      "environment.promises_created": 186, "environment.promises_forced": 186}
    assert tracer.count["interpreter.match_arguments"] == counts["interpreter.closure_calls"]
    assert tracer.count["interpreter.exec_closure"] == counts["interpreter.closure_calls"]
