"""Determinism self-check for the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q

The same seed must give byte-identical generated inputs, every
generated unit must pass its own reference check, and two traced runs
of the same code must give identical count metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mlsbench import harness  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TINY = 0.1


def _fingerprint(units):
    return [(u.name, u.group, u.source, u.expected, u.modules, sorted(u.verdicts.items()))
            for u in units]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = harness.generate(workload, 7, TINY, ROOT)
    again = harness.generate(workload, 7, TINY, ROOT)
    other = harness.generate(workload, 8, TINY, ROOT)
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_every_unit_matches_its_reference(workload):
    loop, metrics = harness.run_untraced(workload, 3, 0.0, TINY, min_units=1, root=ROOT)
    assert len(loop.by_unit) == len(loop.units)
    assert loop.failures == []
    assert all(value > 0 for value, _ in metrics.values())


COUNT_RATIOS = ("environment.promise_useful_ratio", "environment.constant_promise_frac",
                "s3.lookups_per_dispatch", "s3.binary_op_hit_ratio",
                "s4.distance_calls_per_select")


def _counts(metrics):
    """Metrics made of counts only (trace.units depends on run length)."""
    return {name: value for name, (value, unit) in metrics.items()
            if (unit == "count/unit" or name in COUNT_RATIOS)}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_counts_repeat(workload):
    first_loop, first, _ = harness.run_traced(workload, 5, 0.0, TINY, root=ROOT)
    second_loop, second, _ = harness.run_traced(workload, 5, 0.0, TINY, root=ROOT)
    assert first_loop.failures == [] and second_loop.failures == []
    assert _counts(first) == _counts(second)
    assert any(value > 0 for value in _counts(first).values())


def test_tracing_leaves_mls_unpatched():
    mls = harness.load_mls(ROOT)
    before = mls["interpreter"].Interpreter.call_value
    harness.run_traced("calls", 5, 0.0, TINY, root=ROOT)
    assert mls["interpreter"].Interpreter.call_value is before
    assert not hasattr(mls["s3"].dispatch_binary_op, "__wrapped__")
