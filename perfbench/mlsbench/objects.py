"""`objects` workload: the three object systems, with definitions
interleaved with calls.

Each program builds S3 objects whose class vectors are 1-4 deep and
dispatches several `UseMethod` generics on them; defines an S4 class
tree at most four levels deep with one- and two-argument generics whose
methods use `ANY`; and drives reference-class instances with typed,
read-only and active fields, method-driven mutation, aliasing and
`copy()`.  Halfway through, new methods and classes are defined so that
the winning method changes for some calls.

Expected output comes from this module's own model: the S3 winner is
the first class in the object's class vector with a defined method (else
`default`); the S4 winner minimises the sum of breadth-first inheritance
distances, ties broken left to right, with `ANY` at the number of
classes reachable from the actual class.  Calls the model finds
ambiguous are never generated.
"""

from __future__ import annotations

import random
from collections import deque

from .common import Unit, fmt_num, fmt_str, fresh_names, print_vec, stratified

PROGRAMS = 100
S4_ONE_ARG_METHODS = 5
S4_TWO_ARG_METHODS = 30
ANY = "ANY"


# -- S4 model -----------------------------------------------------------------


def _bfs(parents: dict, frm: str, to: str):
    if to == ANY:
        seen = {frm}
        queue = deque([frm])
        while queue:
            for p in parents.get(queue.popleft(), ()):
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return len(seen)
    dist = {frm: 0}
    queue = deque([frm])
    while queue:
        c = queue.popleft()
        if c == to:
            return dist[c]
        for p in parents.get(c, ()):
            if p not in dist:
                dist[p] = dist[c] + 1
                queue.append(p)
    return None


def _s4_winner(parents: dict, methods: dict, actuals: tuple):
    """Winning signature, or None when the choice is ambiguous."""
    scored = []
    for sig in methods:
        dists = [_bfs(parents, a, d) for a, d in zip(actuals, sig)]
        if None not in dists:
            scored.append(((sum(dists), tuple(dists)), sig))
    scored.sort()
    if not scored or (len(scored) > 1 and scored[0][0] == scored[1][0]):
        return None
    return scored[0][1]


class _Program:
    """Accumulates source lines and the output the model predicts."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines = []
        self.out = []

    def emit(self, line: str, expected: str = ""):
        self.lines.append(line)
        self.out.append(expected)


_ROUND = """{name} <- function(xs, ys) {{
  out <- c()
  i <- 1
  while (i <= length(xs)) {{
    out <- c(out, {probe}(el(xs, i), el(ys, i)))
    i <- i + 1
  }}
  out
}}"""


# -- S3 -------------------------------------------------------------------------


def _s3_define(p: _Program, st: dict, gen: str, cls: str, version: int):
    value = f"{gen}:{cls}:{version}"
    st["s3_methods"][gen][cls] = value
    p.emit(f"{gen}.{cls} <- function(x) {fmt_str(value)}")


def _s3_round(p: _Program, st: dict):
    """Every generic on every object, from inside a function."""
    expected = []
    for obj in st["objects"]:
        for gen in st["generics"]:
            defined = st["s3_methods"][gen]
            expected.append(defined[next((c for c in st["s3_classes"][obj] if c in defined), "default")])
    objs = ", ".join(st["objects"])
    p.emit(f"print({st['s3_round']}(list({objs}), list({objs})))", print_vec(expected, strings=True))


# -- S4 -------------------------------------------------------------------------


def _s4_define_class(p: _Program, st: dict, name: str, parent):
    st["parents"][name] = [parent] if parent else []
    st["depth"][name] = st["depth"][parent] + 1 if parent else 0
    if parent:
        p.emit(f'setClass("{name}", contains = "{parent}")')
    else:
        p.emit(f'setClass("{name}", slots = list(v = "numeric"))')


def _s4_define_method(p: _Program, st: dict, gen: str, sig: tuple, version: int):
    value = f"{gen}({','.join(sig)}):{version}"
    st["s4_methods"][gen][sig] = value
    formals = "a" if len(sig) == 1 else "a, b"
    sig_src = ", ".join(f'"{c}"' for c in sig)
    p.emit(f'setMethod("{gen}", c({sig_src}), function({formals}) {fmt_str(value)})')


_S4_DEFINE = """{name} <- function(gen, xs, ys, tags) {{
  one <- function(tag) {{
    tag
    function(a) tag
  }}
  two <- function(tag) {{
    tag
    function(a, b) tag
  }}
  i <- 1
  while (i <= length(tags)) {{
    if (is_null(ys)) {{
      setMethod(gen, c(el(xs, i)), one(el(tags, i)))
    }} else {{
      setMethod(gen, c(el(xs, i), el(ys, i)), two(el(tags, i)))
    }}
    i <- i + 1
  }}
}}"""


def _s4_define_many(p: _Program, st: dict, helper: str, gen: str, sigs: list):
    """Defines one method per signature from a loop in MLS."""
    tags = []
    for sig in sigs:
        tags.append(f"{gen}({','.join(sig)}):1")
        st["s4_methods"][gen][sig] = tags[-1]
    columns = [", ".join(f'"{sig[k]}"' for sig in sigs) for k in range(len(sigs[0]))]
    ys = f"c({columns[1]})" if len(columns) > 1 else "NULL"
    p.emit(f'{helper}("{gen}", c({columns[0]}), {ys}, c({", ".join(fmt_str(t) for t in tags)}))')


def _s4_round(p: _Program, st: dict, pairs: int):
    """Both generics on seeded argument pairs the model finds unambiguous."""
    rng = p.rng
    one, two = st["s4_generics"]
    xs, ys, expected = [], [], []
    while len(xs) < pairs:
        a = rng.choice(st["instances"])
        b = rng.choice(st["instances"]) if rng.random() < 0.8 else None  # None: a plain number
        ca = st["instance_class"][a]
        cb = st["instance_class"][b] if b else "numeric"
        w1 = _s4_winner(st["parents"], st["s4_methods"][one], (ca,))
        w2 = _s4_winner(st["parents"], st["s4_methods"][two], (ca, cb))
        if w1 is None or w2 is None:
            continue
        xs.append(a)
        ys.append(b or str(rng.randrange(1, 99)))
        expected += [st["s4_methods"][one][w1], st["s4_methods"][two][w2]]
    p.emit(
        f"print({st['s4_round']}(list({', '.join(xs)}), list({', '.join(ys)})))",
        print_vec(expected, strings=True),
    )


def _s4_new(p: _Program, st: dict, var: str, cls: str):
    st["instances"].append(var)
    st["instance_class"][var] = cls
    p.emit(f'{var} <- new("{cls}", v = {p.rng.randrange(1, 9)})')


# -- reference classes ------------------------------------------------------------


_ACCOUNT = """{cls} <- setRefClass("{cls}",
  fields = list(
    owner = list(class = "character", readonly = TRUE),
    bal = "numeric",
    dbl = list(
      get = function() bal * 2,
      set = function(value) bal <<- value / 2)),
  methods = list(
    dep = function(a) {{
      bal <<- bal + a
      invisible(.self)
    }},
    dep_twice = function(a) {{
      dep(a)
      dep(a)
      invisible(.self)
    }}))"""

_SAVINGS = """{cls} <- setRefClass("{cls}",
  fields = list(rate = "numeric"),
  methods = list(
    dep = function(a) {{
      bal <<- bal + a + rate
      invisible(.self)
    }}),
  contains = "{parent}")"""

_REF_ROUND = """{name} <- function(accts, k) {{
  out <- c()
  i <- 1
  while (i <= length(accts)) {{
    a <- el(accts, i)
    a$dep(k)
    a$dep_twice(k)
    a$bal <- a$dbl - a$bal + k
    a$dbl <- a$dbl + 2
    out <- c(out, a$bal)
    i <- i + 1
  }}
  out
}}"""


def _ref_round(p: _Program, st: dict, k: int):
    """Mutates every listed account through methods, plain and active
    fields; aliases in the list see each other's changes."""
    names = st["round_accounts"]
    balances = []
    for var in names:
        acct = st["accounts"][var]
        extra = acct["rate"]
        acct["bal"] += 3 * (k + extra) + k + 1
        balances.append(acct["bal"])
    p.emit(f"print({st['ref_round']}(list({', '.join(names)}), {k}))", print_vec(balances))


def _ref_new(p: _Program, st: dict, var: str, cls: str, rate: int):
    owner = p.rng.choice(("ada", "bob", "cy", "dee"))
    bal = p.rng.randrange(1, 100)
    st["accounts"][var] = {"owner": owner, "bal": bal, "rate": rate}
    extra = f", rate = {rate}" if rate else ""
    p.emit(f'{var} <- {cls}(owner = "{owner}", bal = {bal}{extra})')


def _ref_alias_and_copy(p: _Program, st: dict, alias: str, snap: str):
    src = p.rng.choice(list(st["accounts"]))
    st["accounts"][alias] = st["accounts"][src]
    st["accounts"][snap] = dict(st["accounts"][src])
    p.emit(f"{alias} <- {src}")
    p.emit(f"{snap} <- copy({src})")


def _ref_report(p: _Program, st: dict, var: str):
    acct = st["accounts"][var]
    p.emit(
        f"print(c({var}$owner, paste({var}$bal), paste({var}$dbl)))",
        print_vec([acct["owner"], fmt_num(acct["bal"]), fmt_num(acct["bal"] * 2)], strings=True),
    )


# -- one program --------------------------------------------------------------------


def _program(rng: random.Random, index: int, work: float) -> Unit:
    p = _Program(rng)
    cls = fresh_names(rng, 14, "C")
    gens = fresh_names(rng, 4, "g")
    objs = fresh_names(rng, 8, "o")
    helpers = fresh_names(rng, 6, "h")
    st = {
        "generics": gens,
        "objects": objs,
        "s3_methods": {g: {"default": f"{g}:default"} for g in gens},
        "s3_classes": {},
        "s3_round": helpers[0],
        "s4_round": helpers[2],
        "ref_round": helpers[4],
        "parents": {},
        "depth": {},
        "s4_methods": {},
        "instances": [],
        "instance_class": {},
        "accounts": {},
    }
    # S3: class vectors are suffixes of one 4-deep chain or of a sibling chain
    chain = cls[:4]
    sibling = [cls[4], cls[5]] + cls[2:4]
    for g in gens:
        p.emit(f'{g} <- function(x) UseMethod("{g}")')
        p.emit(f'{g}.default <- function(x) {fmt_str(st["s3_methods"][g]["default"])}')
        for c in rng.sample(chain[2:] + sibling[:2], 2):
            _s3_define(p, st, g, c, 1)
    for k, o in enumerate(objs):
        base = chain if k % 2 == 0 else sibling
        vec = base[rng.randrange(4):]
        st["s3_classes"][o] = vec
        class_src = ", ".join(f'"{c}"' for c in vec)
        p.emit(f'{o} <- set_attr(list(id = {k}), "class", c({class_src}))')
    probe = ", ".join(f"{g}(x)" for g in gens)
    p.emit(f"{helpers[1]} <- function(x, y) c({probe})")
    p.emit(_ROUND.format(name=helpers[0], probe=helpers[1]))

    # S4: a tree at most four levels deep, one- and two-argument generics
    # whose many methods are defined from a loop
    k4 = cls[6:14]
    _s4_define_class(p, st, k4[0], None)
    for c in k4[1:7]:
        _s4_define_class(p, st, c, rng.choice([x for x in st["depth"] if st["depth"][x] < 3]))
    one, two = fresh_names(rng, 2, "s")
    st["s4_generics"] = (one, two)
    st["s4_methods"] = {one: {}, two: {}}
    p.emit(f'setGeneric("{one}", function(a) standardGeneric("{one}"))')
    p.emit(f'setGeneric("{two}", function(a, b) standardGeneric("{two}"))')
    p.emit(_S4_DEFINE.format(name=helpers[5]))
    _s4_define_method(p, st, one, (ANY,), 1)
    _s4_define_method(p, st, two, (ANY, ANY), 1)
    _s4_define_many(p, st, helpers[5], one, [(c,) for c in rng.sample(k4[:7], S4_ONE_ARG_METHODS)])
    pairs = [(a, b) for a in k4[:7] + [ANY] for b in k4[:7] + [ANY] if (a, b) != (ANY, ANY)]
    _s4_define_many(p, st, helpers[5], two, rng.sample(pairs, S4_TWO_ARG_METHODS))
    for var in fresh_names(rng, 5, "i"):
        _s4_new(p, st, var, rng.choice(k4[:7]))
    p.emit(f"{helpers[3]} <- function(x, y) c({one}(x), {two}(x, y))")
    p.emit(_ROUND.format(name=helpers[2], probe=helpers[3]))

    # reference classes
    acct_cls, sav_cls = fresh_names(rng, 2, "R")
    accts = fresh_names(rng, 7, "a")
    p.emit(_ACCOUNT.format(cls=acct_cls))
    p.emit(_REF_ROUND.format(name=helpers[4]))
    _ref_new(p, st, accts[0], acct_cls, 0)
    _ref_new(p, st, accts[1], acct_cls, 0)
    _ref_alias_and_copy(p, st, accts[2], accts[3])
    st["round_accounts"] = [accts[0], accts[1], accts[2]]

    # work in [0, 1) sets how many S4 calls the program makes
    pairs = 6 + int(work * 16)
    _s3_round(p, st)
    _s4_round(p, st, pairs)
    _ref_round(p, st, rng.randrange(1, 9))
    _ref_report(p, st, accts[3])

    # halfway: new definitions change some winners
    for g in gens:
        _s3_define(p, st, g, rng.choice(chain[:3] + sibling[:2]), 2)
    _s4_define_class(p, st, k4[7], rng.choice([x for x in st["depth"] if st["depth"][x] < 3]))
    _s4_new(p, st, fresh_names(rng, 1, "j")[0], k4[7])
    _s4_define_method(p, st, one, (k4[7],), 2)
    for _ in range(3):
        _s4_define_method(p, st, two, (rng.choice(k4 + [ANY]), rng.choice(k4 + [ANY])), 2)
    p.emit(_SAVINGS.format(cls=sav_cls, parent=acct_cls))
    _ref_new(p, st, accts[4], sav_cls, rng.randrange(1, 4))
    _ref_alias_and_copy(p, st, accts[5], accts[6])
    st["round_accounts"] = [accts[4], accts[5], accts[0], accts[6]]

    _s3_round(p, st)
    _s4_round(p, st, pairs)
    _ref_round(p, st, rng.randrange(1, 9))
    _ref_report(p, st, accts[3])
    _ref_report(p, st, accts[1])
    return Unit(
        name=f"objects-{index}",
        source="\n".join(p.lines) + "\n",
        expected="".join(p.out),
    )


def generate(seed: int, scale: float = 1.0) -> list:
    rng = random.Random(f"objects:{seed}")
    count = max(2, int(PROGRAMS * scale))
    return [_program(rng, i, w) for i, w in enumerate(stratified(rng, count, 0.0, 1.0))]
