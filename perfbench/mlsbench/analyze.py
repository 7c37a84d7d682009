"""`analyze` workload: multi-module sets for the purity analyzer.

Each set holds the twelve labelled fixture modules from
`corpus/analyzer/` plus generated modules that import each other.  The
generated functions form a call chain of varied depth that crosses
module boundaries through imports, cycles of mutual recursion (strongly
connected components), and leaves that carry each kind of impurity,
including foreign and dynamic calls.  Nothing is evaluated.

Verdicts are known by construction: a function's reason kinds are the
union of the kinds its own body plants and those of every function it
can reach; any ForeignCode or DynamicCode makes it uncertifiable, any
other kind nonfunctional.  Fixture verdicts come from `labels.json`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .common import Unit, stratified

SETS = 100
MODULES = 5
RINGS = 6
TOPS = 12

FUNCTIONAL, NONFUNCTIONAL, UNCERTIFIABLE = "functional", "nonfunctional", "uncertifiable"
_UNCERTIFIABLE_KINDS = {"ForeignCode", "DynamicCode"}

# statements planting exactly one reason kind; `{n}` is a unique suffix
_PLANTS = {
    None: ["y <- x * {k} + length(c(x, {k}))"],
    "NonlocalAssignment": ["tally_{n} <<- x", "y <- x + {k}"],
    "StateRead": ['y <- x + get_option("opt_{n}")'],
    "RngDependence": ["y <- x + rng_draw(1)"],
    "GlobalReference": ["y <- x + shared_{n}"],
    "ForeignCode": ['y <- foreign("identity", x) + {k}'],
    "DynamicCode": ['y <- UseMethod("gen_{n}")'],
}
_KINDS = [k for k in _PLANTS if k is not None]


def _status(kinds) -> str:
    if set(kinds) & _UNCERTIFIABLE_KINDS:
        return UNCERTIFIABLE
    return NONFUNCTIONAL if kinds else FUNCTIONAL


def load_fixtures(root: Path):
    """(module name, source) pairs and their labelled verdicts."""
    base = root / "corpus" / "analyzer"
    labels = json.loads((base / "labels.json").read_text(encoding="utf-8"))
    modules = [(f.stem, f.read_text(encoding="utf-8")) for f in sorted(base.rglob("*.mls"))]
    verdicts = {
        (mname, fname): (entry["status"], tuple(entry["kinds"]))
        for mname, fns in labels.items()
        for fname, entry in fns.items()
    }
    return modules, verdicts


def _module_set(rng: random.Random, index: int, depth: int, fixtures) -> Unit:
    mods = [f"gen{index}_m{i}" for i in range(MODULES)]
    home = {}  # function -> module
    own = {}  # function -> own kind or None
    calls = {}  # function -> callees
    counter = [0]

    def new_fn(prefix, module, kind=None):
        counter[0] += 1
        name = f"{prefix}{counter[0]}"
        home[name], own[name], calls[name] = module, kind, []
        return name

    # leaves: every impurity kind at least once, plus pure ones
    leaf_kinds = _KINDS + [None] * 4 + [rng.choice(_KINDS) for _ in range(3)]
    leaves = [new_fn("leaf", rng.choice(mods), k) for k in leaf_kinds]
    # a chain that walks through the modules in order, so it crosses
    # imports; it ends in an impure leaf, so every step carries a reason
    chain = [new_fn("step", mods[min(MODULES - 1, i * MODULES // depth)]) for i in range(depth)]
    for a, b in zip(chain, chain[1:]):
        calls[a].append(b)
    calls[chain[-1]].append(leaves[index % len(_KINDS)])
    # strongly connected components: cycles of 2-4 functions in one
    # module, each with one impure member, hung at evenly spaced steps
    for k in range(RINGS):
        module = rng.choice(mods)
        ring = [new_fn("ring", module, _KINDS[k % len(_KINDS)] if j == 0 else None)
                for j in range(2 + k % 3)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            calls[a].append(b)
        calls[ring[-1]].append(rng.choice(leaves))
        calls[chain[k * depth // RINGS]].append(ring[0])
    # callers that fan out over the rest, entering the chain at evenly
    # spaced steps
    for t in range(TOPS):
        f = new_fn("top", rng.choice(mods), rng.choice([None, None, None] + _KINDS))
        calls[f].extend([chain[t * depth // TOPS], rng.choice(leaves)])

    sources = []
    for m in mods:
        imports = {}
        body = []
        for f in [f for f in home if home[f] == m]:
            for g in calls[f]:
                if home[g] != m:
                    imports.setdefault(home[g], set()).add(g)
            plant = [s.format(n=f, k=rng.randrange(1, 9)) for s in _PLANTS[own[f]]]
            terms = " + ".join(f"{g}(x - 1)" for g in calls[f]) or "0"
            body.append(
                f"{f} <- function(x) {{\n"
                + "".join(f"  {s}\n" for s in plant)
                + f"  if (x > {rng.randrange(1, 5)}) y + {terms} else y\n}}\n"
            )
        header = [f"import {src} ({', '.join(sorted(names))})" for src, names in sorted(imports.items())]
        rng.shuffle(body)
        sources.append((m, "\n".join(header) + "\n\n# generated module\n" + "\n".join(body)))

    verdicts = dict(fixtures[1])
    for f in home:
        seen, stack = {f}, [f]
        while stack:
            for g in calls[stack.pop()]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        kinds = tuple(sorted({own[g] for g in seen if own[g] is not None}))
        verdicts[(home[f], f)] = (_status(kinds), kinds)
    modules = list(fixtures[0]) + sources
    return Unit(name=f"analyze-{index}", modules=modules, verdicts=verdicts)


def generate(seed: int, scale: float = 1.0, root: Path = Path(".")) -> list:
    rng = random.Random(f"analyze:{seed}")
    fixtures = load_fixtures(root)
    count = max(2, int(SETS * scale))
    depths = stratified(rng, count, 10, 90)
    return [_module_set(rng, i, max(MODULES, int(d * scale)), fixtures) for i, d in enumerate(depths)]
