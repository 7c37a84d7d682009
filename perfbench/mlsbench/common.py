"""Shared pieces of the workload generators.

A generated unit carries the MLS source the program under test sees and
the output an independent Python model predicts for it.  The expected
output is written with this module's own formatting rules, which
restate the documented print format ("[1] a b c", integral doubles
without a decimal point, attribute trailers); nothing here imports the
interpreter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass
class Unit:
    """One program (run workloads) or one module set (analyze)."""

    name: str
    source: str = ""  # run workloads: the whole program text
    expected: str = ""  # run workloads: exact stdout
    group: str = ""  # size class label, e.g. "n" or "2n" for paired units
    modules: list = field(default_factory=list)  # analyze: (module name, source)
    verdicts: dict = field(default_factory=dict)  # analyze: (module, fn) -> (status, kinds)


def stratified(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """`count` values covering [lo, hi) evenly, one per stratum, in a
    seeded order.  Every seed gets nearly the same spread of sizes, so
    per-run averages depend little on the seed."""
    out = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(out)
    return out


_SYLLABLES = ("ka", "lo", "mi", "nu", "po", "ra", "si", "tu", "ve", "zo", "qe", "hy")


def fresh_names(rng: random.Random, count: int, prefix: str) -> list:
    """Distinct identifiers with a seeded spelling."""
    names = []
    seen = set()
    while len(names) < count:
        word = prefix + "".join(rng.choice(_SYLLABLES) for _ in range(2)) + str(len(names))
        if word not in seen:
            seen.add(word)
            names.append(word)
    return names


# -- expected-output formatting ---------------------------------------------


def fmt_num(x) -> str:
    if isinstance(x, bool):
        return "TRUE" if x else "FALSE"
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Inf" if x > 0 else "-Inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def fmt_str(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def vec_line(items, strings: bool = False) -> str:
    if not items:
        return "character(0)" if strings else "numeric(0)"
    body = " ".join(fmt_str(x) if strings else fmt_num(x) for x in items)
    return f"[1] {body}"


def print_vec(items, strings: bool = False, attrs=()) -> str:
    """Output of print() on an atomic vector with (name, line) attribute
    trailers in insertion order."""
    lines = [vec_line(items, strings)]
    for name, line in attrs:
        lines.append(f'attr(,"{name}")')
        lines.append(line)
    return "\n".join(lines) + "\n"
