"""A fixed pure-Python workload that tracks the speed of the CPU.

On a shared virtual machine the speed the benchmark process gets drifts
by 15-20% over seconds (measured: one loop's time ranged 11-20 ms
within half a minute, in CPU time as much as in wall time).  The
benchmark runs this workload between units and scales each unit's time
by `REFERENCE_S / (time of the calibration passes on both sides)`, so
reported times read as if the calibration always took `REFERENCE_S`.
The workload is a small tree-walking evaluator over dictionaries, the
same kind of work the interpreter does, and uses nothing from `mls`,
so a change to `mls` cannot change it.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 1e-3  # nominal duration of one pass
PASS_STEPS = 600


class _Num:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


class _Var:
    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n


class _Add:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _eval(e, env):
    if isinstance(e, _Num):
        return e.v
    if isinstance(e, _Var):
        return env[e.n]
    return _eval(e.a, env) + _eval(e.b, env)


_TREE = _Add(_Add(_Var("x"), _Num(1)), _Add(_Var("y"), _Add(_Num(2), _Var("x"))))


def calibrate() -> float:
    """Seconds one calibration pass takes now."""
    t0 = perf_counter()
    env = {"x": 1, "y": 2}
    acc = 0
    for i in range(PASS_STEPS):
        env["x"] = i
        acc += _eval(_TREE, env)
        env = dict(env)
    return perf_counter() - t0


class Clock:
    """Turns measured durations into reference durations, using the
    calibration passes run just before and just after each one."""

    def __init__(self):
        self.before = calibrate()
        self.passes = [self.before]

    def scale(self, seconds: float) -> float:
        after = calibrate()
        self.passes.append(after)
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return seconds * factor
