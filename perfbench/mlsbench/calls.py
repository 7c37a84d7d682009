"""`calls` workload: scalar programs made of closures and loops.

Each program defines recursive and mutually recursive closures, a
`while` accumulator with default, named and never-forced lazy
arguments, and a closure factory, then prints a handful of calls whose
arguments mix constants and expressions.  No value carries a class, so
S3/S4/reference-class dispatch and the analyzer are not involved; the
evaluator and environments do the work.
"""

from __future__ import annotations

import random

from .common import Unit, fmt_num, fresh_names, stratified

PROGRAMS = 100


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _acc(k, step, scale):
    total = 0
    for i in range(k):
        total = total + i * scale + step
    return total


def _program(rng: random.Random, index: int, work: float) -> Unit:
    fact, fib, even, odd, acc, adder, add = fresh_names(rng, 7, "f")
    # work in [0, 1) spreads program costs evenly across the pool: the
    # parts it scales are linear in their size, the exponential fib is fixed
    k_fact = 8 + int(work * 10)
    k_fib = 10
    k_par = 30 + int(work * 90)
    k_loop = 60 + int(work * 240)
    k_loop2 = 40 + rng.randrange(20)
    step = rng.randrange(1, 9)
    c3 = rng.randrange(1, 9)
    c4 = rng.randrange(1, 9)
    base = rng.randrange(1, 20)
    x1 = rng.randrange(1, 50)
    x2 = rng.randrange(1, 50)
    b2 = rng.randrange(1, 50)
    defs = [
        f"{fact} <- function(n) if (n <= 1) 1 else n * {fact}(n - 1)",
        f"{fib} <- function(n) if (n < 2) n else {fib}(n - 1) + {fib}(n - 2)",
        f"{even} <- function(n) if (n == 0) TRUE else {odd}(n - 1)\n"
        f"{odd} <- function(n) if (n == 0) FALSE else {even}(n - 1)",
        f"{acc} <- function(k, step = 1, scale = step * 2, never = stop(\"forced\")) {{\n"
        f"  total <- 0\n"
        f"  i <- 0\n"
        f"  while (i < k) {{\n"
        f"    total <- total + i * scale + step\n"
        f"    i <- i + 1\n"
        f"  }}\n"
        f"  total\n"
        f"}}",
        f"{adder} <- function(a) function(x, b = a + 0) x + b",
    ]
    rng.shuffle(defs)
    calls = [
        (f"print({fact}({k_fact}))", fmt_num(_prod(k_fact))),
        (f"print({fib}({k_fib - 1} + 1))", fmt_num(_fib(k_fib))),
        (f"print({even}({k_par}))", fmt_num(k_par % 2 == 0)),
        (f"print({acc}({k_loop}, step = {step}))", fmt_num(_acc(k_loop, step, step * 2))),
        (
            f"print({acc}({k_loop2}, {c3}, scale = {c4} + 1, never = stop(\"lazy\")))",
            fmt_num(_acc(k_loop2, c3, c4 + 1)),
        ),
        (f"print({add}({x1} * 2))", fmt_num(x1 * 2 + base)),
        (f"print({add}(b = {b2}, x = {x2}))", fmt_num(x2 + b2)),
    ]
    rng.shuffle(calls)
    lines = defs + [f"{add} <- {adder}({base})"] + [c for c, _ in calls]
    expected = "".join(f"[1] {out}\n" for _, out in calls)
    return Unit(name=f"calls-{index}", source="\n".join(lines) + "\n", expected=expected)


def _prod(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def generate(seed: int, scale: float = 1.0) -> list:
    rng = random.Random(f"calls:{seed}")
    count = max(2, int(PROGRAMS * scale))
    return [_program(rng, i, w) for i, w in enumerate(stratified(rng, count, 0.0, 1.0))]
