"""`vectors` workload: building and modifying values.

Each program grows a vector with `c(x, v)`, updates it in bounds with
`x[i] <-`, attaches attributes with `set_attr`, edits a list with
`$<-`, reads it back with `el`, draws from the seeded generator, and
prints long and attributed vectors.  Programs come in pairs that differ
only in size (n and 2n), so the traced run can report how the cost of
`c()` scales.  This is the write side of the value layer; `calls` is
the read side.
"""

from __future__ import annotations

import random

from .common import Unit, fmt_num, fmt_str, fresh_names, print_vec, stratified, vec_line
from .xorshift import draws

PAIRS = 50
BLOCK = 8  # elements appended per c(x, v)


def _program(index: int, n: int, tag: str, knobs: dict) -> Unit:
    grow, bump, retag = knobs["names"]
    block, c2, c3, c4, stride, k, seed, m, label = (
        knobs[key] for key in ("block", "c2", "c3", "c4", "stride", "k", "seed", "m", "label"))
    src = f"""{grow} <- function(n, block) {{
  x <- c()
  i <- 1
  while (i <= n) {{
    x <- c(x, block * i)
    i <- i + 1
  }}
  x
}}
{bump} <- function(x, by, stride) {{
  i <- 1
  n <- length(x)
  while (i <= n) {{
    x[i] <- x[i] + by
    i <- i + stride
  }}
  x
}}
{retag} <- function(l, k) {{
  i <- 1
  while (i <= k) {{
    l <- set_attr(l, "version", i)
    i <- i + 1
  }}
  l
}}
v <- {grow}({n}, c({", ".join(map(str, block))}))
v <- {bump}(v, {c2}, {stride})
v <- set_attr(v, "units", {fmt_str(label)})
v <- set_attr(v, "origin", c({c3}, {c4}))
print(v)
print(sum(v))
l <- list(a = 1, b = "first")
l$b <- v
l$c <- {fmt_str(label)}
l$a <- NULL
l <- {retag}(l, {k})
print(el(l, 1))
print(names(l))
print(attr(l, "version"))
set_seed({seed})
u <- rng_draw({m})
print(u)
w <- c(u, v)
print(length(w))
print(paste("size", length(v), "last", el(v, length(v))))
"""
    v = [b * i for i in range(1, n + 1) for b in block]
    for pos in range(0, len(v), stride):
        v[pos] += c2
    u = draws(seed, m)
    printed_v = print_vec(
        v, attrs=[("units", vec_line([label], strings=True)), ("origin", vec_line([c3, c4]))])
    expected = (
        printed_v
        + f"[1] {fmt_num(sum(v))}\n"
        + printed_v
        + print_vec(["b", "c"], strings=True)
        + f"[1] {k}\n"
        + print_vec(u)
        + f"[1] {len(v) + m}\n"
        + print_vec([f"size {len(v)} last {fmt_num(v[-1])}"], strings=True)
    )
    return Unit(name=f"vectors-{index}-{tag}", source=src, expected=expected, group=tag)


def generate(seed: int, scale: float = 1.0) -> list:
    rng = random.Random(f"vectors:{seed}")
    pairs = max(1, int(PAIRS * scale))
    units = []
    for i, size in enumerate(stratified(rng, pairs, 24, 80)):
        n = max(2, int(size * scale))
        knobs = {
            "names": fresh_names(rng, 3, "v"),
            "block": [rng.randrange(1, 99) for _ in range(BLOCK)],
            "c2": rng.randrange(1, 99),
            "c3": rng.randrange(1, 9),
            "c4": rng.randrange(1, 9),
            "stride": rng.randrange(BLOCK - 2, BLOCK + 3),
            "k": rng.randrange(8, 12),
            "seed": rng.randrange(1, 10**6),
            "m": rng.randrange(20, 40),
            "label": rng.choice(("cm", "kg", "s", "m/s")),
        }
        units.append(_program(i, n, "n", knobs))
        units.append(_program(i, 2 * n, "2n", knobs))
    return units
