"""The benchmark's tracer wraps `mls` functions by name (see
`perfbench/mlsbench/tracing.py`).  Installing and uninstalling it here
makes a rename that breaks the benchmark trace fail the test suite."""

import importlib
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
