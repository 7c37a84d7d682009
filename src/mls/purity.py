"""Static certification of functional validity.

A function is certified functional when its result can only depend on
its arguments: no nonlocal assignment, no reads of mutable interpreter
state, no random draws, no references outside the module's namespace,
and no foreign or dynamically resolved code anywhere in its call graph.
Verification is bottom-up: the call graph is condensed into strongly
connected components and verdicts propagate from callees to callers,
with Uncertifiable dominating Nonfunctional dominating Functional.

The analysis is deliberately conservative: code that would be harmless
at run time may still be refused certification.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import reader, syntax, values
from .builtins import BUILTIN_FORMALS, BUILTIN_PURITY
from .interpreter import REQUIRED, match_formals
from .values import MlsError

NONLOCAL_ASSIGNMENT = "NonlocalAssignment"
STATE_READ = "StateRead"
RNG_DEPENDENCE = "RngDependence"
GLOBAL_REFERENCE = "GlobalReference"
FOREIGN_CODE = "ForeignCode"
DYNAMIC_CODE = "DynamicCode"

ALL_KINDS = (
    NONLOCAL_ASSIGNMENT,
    STATE_READ,
    RNG_DEPENDENCE,
    GLOBAL_REFERENCE,
    FOREIGN_CODE,
    DYNAMIC_CODE,
)

FUNCTIONAL = "functional"
NONFUNCTIONAL = "nonfunctional"
UNCERTIFIABLE = "uncertifiable"

_UNCERTIFIABLE_KINDS = {FOREIGN_CODE, DYNAMIC_CODE}


@dataclass(frozen=True)
class Violation:
    kind: str
    line: int
    column: int
    detail: str
    subject: Optional[str] = None  # e.g. the option name, for remediation


@dataclass
class FunctionFacts:
    name: str
    violations: list = field(default_factory=list)
    callees: list = field(default_factory=list)  # Calls of a named callee
    name_uses: dict = field(default_factory=dict)  # free name -> first loc


@dataclass
class ModuleUnit:
    name: str
    definitions: dict  # name -> FunctionLiteral
    bindings: set  # every top-level assigned name
    imports: list  # (module name, [imported names])
    path: Optional[str] = None


@dataclass
class Verdict:
    status: str
    reasons: list  # merged own + inherited Violations
    via: list  # callee names that contributed reasons
    own_reasons: list


@dataclass
class FunctionReport:
    module: str
    name: str
    verdict: Verdict
    suggestions: list


@dataclass
class AnalysisReport:
    modules: list  # (module name, [FunctionReport])
    edges: list  # ((module, fn), (module, fn))
    summary: dict


# ---------------------------------------------------------------------------
# builtin classification policy


def default_policy() -> dict:
    """A fresh copy of `builtins.BUILTIN_PURITY`, which maps each builtin
    to its purity class: pure, state_read, rng, foreign, dynamic,
    global_ref or local_assign.  Callers may change it; a builtin it does
    not classify is not certified."""
    return dict(BUILTIN_PURITY)


# ---------------------------------------------------------------------------
# module loading

_IMPORT_RE = re.compile(r"^\s*import\s+([A-Za-z_.][A-Za-z0-9_.]*)\s*\(([^)]*)\)\s*$")


def parse_module(name: str, source: str, path=None) -> ModuleUnit:
    """Parse one module: leading `import mod (a, b)` header lines declare
    imports; the rest is ordinary source whose top-level function
    assignments are the module's definitions."""
    lines = source.split("\n")
    imports = []
    body_start = 0
    for i, line in enumerate(lines):
        m = _IMPORT_RE.match(line)
        if m:
            names = [n.strip() for n in m.group(2).split(",") if n.strip()]
            imports.append((m.group(1), names))
            lines[i] = ""  # keep line numbers stable
            body_start = i + 1
            continue
        if line.strip() == "" or line.lstrip().startswith("#"):
            continue
        break
    exprs = reader.parse_program("\n".join(lines))
    definitions = {}
    bindings = set()
    for e in exprs:
        if isinstance(e, syntax.Assign):
            bindings.add(e.target.name)
            if isinstance(e.value, syntax.FunctionLiteral):
                definitions[e.target.name] = e.value
    return ModuleUnit(name, definitions, bindings, imports, path)


# ---------------------------------------------------------------------------
# scanning: per-function local facts


def match_builtin_call(call: syntax.Call) -> Optional[dict]:
    """The formals of the builtin `call` names, bound to their actual
    expressions as `Interpreter.call_value` binds them (a variadic builtin
    binds none), or None when it rejects the call before the builtin
    runs."""
    formals = BUILTIN_FORMALS.get(call.callee.name)
    if formals is None:
        return {}
    try:
        matched, extra = match_formals(formals, call.args)
    except MlsError:
        return None
    if extra or any(default is REQUIRED and name not in matched for name, default in formals):
        return None
    return matched


def _literal(e) -> Optional[str]:
    """The string of a literal string expression, else None."""
    if type(e) is syntax.Constant and e.value.kind == values.STRING and len(e.value.payload) == 1:
        return e.value.payload[0]
    return None


# calls that are grammar, such as operator spellings: their arguments are
# walked, and their head is no user-resolvable callee
_SYNTAX_HEADS = frozenset(("{", "if", "while", "[", "[<-", "$", "$<-")
                          + syntax.BINARY_OPS + syntax.UNARY_OPS)


def scan_function(name: str, literal: syntax.FunctionLiteral) -> FunctionFacts:
    """Collect superassignments, interesting callees, and free names,
    each with its source location, in one walk of each function body.

    The walk keeps every name use (a Symbol) and every call of a named
    callee in walk order, and collects each function's locals as it
    goes: names assigned with `<-` or given literally to an assign()
    that binds no `envir`, not in nested function literals or formal
    defaults.  When a function literal's walk ends, the uses its formals
    and locals bind are dropped; the rest are uses of the enclosing
    function."""
    violations = []
    names = []  # Symbol uses not yet known to be bound
    calls = []  # Calls of a named callee not yet known to be bound

    def walk_function(fl: syntax.FunctionLiteral):
        n0, c0 = len(names), len(calls)
        for _, default in fl.formals:
            if default is not None:
                walk(default, set())  # an assignment in a default binds no local
        bound = {n for n, _ in fl.formals}
        walk(fl.body, bound)
        names[n0:] = [s for s in names[n0:] if s.name not in bound]
        calls[c0:] = [c for c in calls[c0:] if c.callee.name not in bound]

    def walk(e, local: set):
        cls = type(e)
        if cls is syntax.Symbol:
            names.append(e)
            return
        if cls is syntax.Constant:
            return
        if cls is not syntax.Call:
            head = e.HEAD
            if head == "function":
                walk_function(e)
            elif head in ("<-", "<<-"):
                if head == "<-":
                    local.add(e.target.name)
                else:
                    superassign(e, e.target.name)
                walk(e.value, local)
            else:
                for x in syntax.child_expressions(e):
                    walk(x, local)
            return
        callee, args = e.callee, e.args
        if type(callee) is syntax.Symbol:
            cname = callee.name
            if cname in ("<-", "<<-") and len(args) == 2:
                # a backquoted assignment: its target is no use, but what the
                # target assigns is local; other arities are ordinary calls
                target = args[0][1]
                kept = len(names), len(calls), len(violations)
                walk(target, local)
                del names[kept[0]:], calls[kept[1]:], violations[kept[2]:]
                if cname == "<<-":
                    superassign(e, getattr(target, "name", None))
                walk(args[1][1], local)
                return
            if cname not in _SYNTAX_HEADS:
                if cname == "assign":  # a literal name assigned here is a local
                    matched = match_builtin_call(e) or {}
                    assigned = _literal(matched.get("name"))
                    if assigned is not None and "envir" not in matched:
                        local.add(assigned)
                calls.append(e)
        else:
            # computed callee: the target of the call cannot be resolved statically
            violations.append(Violation(DYNAMIC_CODE, *callee.loc,
                                        f"computed callee: {syntax.deparse(callee)}"))
            walk(callee, local)
        for _, arg in args:
            walk(arg, local)

    def superassign(e, subject):
        violations.append(Violation(NONLOCAL_ASSIGNMENT, *e.loc, syntax.deparse(e), subject))

    walk_function(literal)
    facts = FunctionFacts(name, violations, calls)
    for s in names:
        facts.name_uses.setdefault(s.name, s.loc)
    return facts


# ---------------------------------------------------------------------------
# resolution: classify free names and build call edges


def _builtin_violation(name: str, loc, kind: Optional[str],
                       call: Optional[syntax.Call]) -> Optional[Violation]:
    """The violation of using builtin `name` of purity class `kind`, called
    by `call` or, when `call` is None, only named."""
    line, col = loc
    if kind == "pure":
        return None
    if kind == "local_assign" or kind == "state_read":
        matched = match_builtin_call(call) if call is not None else {}
        if matched is None:  # the call fails, so it assigns and reads nothing
            return None
        if kind == "local_assign":
            if "envir" not in matched:
                return None
            return Violation(
                NONLOCAL_ASSIGNMENT, line, col,
                "assign() with an explicit target environment",
            )
        opt = _literal(matched.get("name"))
        verb = "writes" if name == "options" else "reads"
        if opt is not None:
            return Violation(STATE_READ, line, col, f"{verb} option '{opt}'", subject=opt)
        return Violation(STATE_READ, line, col, f"{verb} a dynamically named option")
    if kind == "rng":
        return Violation(RNG_DEPENDENCE, line, col, f"calls {name}()")
    if kind == "foreign":  # the tag is an unnamed first argument, as `foreign` reads it
        args = call.args if call is not None else []
        tag = _literal(args[0][1]) if args and args[0][0] is None else None
        detail = f"calls foreign('{tag}')" if tag else "calls foreign code"
        return Violation(FOREIGN_CODE, line, col, detail)
    if kind == "global_ref":
        return Violation(GLOBAL_REFERENCE, line, col, "obtains the global environment")
    if kind == "dynamic":
        return Violation(
            DYNAMIC_CODE, line, col,
            f"calls {name}(), whose meaning depends on runtime definitions",
        )
    return Violation(DYNAMIC_CODE, line, col, f"builtin '{name}' is not certified")


def resolve_names(module: ModuleUnit, facts: FunctionFacts, universe: dict, policy: dict):
    """Classify every free name; returns (violations, edges) where edges
    point at (module, function) definitions.  A name the module binds
    belongs to the module, even if it also imports it."""
    violations = []
    edges = []

    import_map = {}
    for imp_module, names in module.imports:
        for n in names:
            import_map[n] = imp_module

    def resolve(name, loc, call: Optional[syntax.Call]):
        line, col = loc
        called = call is not None
        owner = module if name in module.bindings else universe.get(import_map.get(name))
        if owner is not None:
            if name in owner.definitions:
                edges.append((owner.name, name))
            elif name not in owner.bindings:
                violations.append(
                    Violation(
                        GLOBAL_REFERENCE, line, col,
                        f"'{name}' is not defined by module '{owner.name}'",
                    )
                )
            elif called:
                violations.append(
                    Violation(
                        DYNAMIC_CODE, line, col,
                        f"'{name}' is not a statically defined function",
                    )
                )
            return
        if name in BUILTIN_PURITY:
            v = _builtin_violation(name, loc, policy.get(name), call)
            if v is not None:
                violations.append(v)
            return
        violations.append(
            Violation(
                GLOBAL_REFERENCE, line, col,
                f"'{name}' resolves to no local, module definition, import, or builtin",
            )
        )

    for call in facts.callees:
        resolve(call.callee.name, call.loc, call)
    for name, loc in facts.name_uses.items():
        resolve(name, loc, None)
    return violations, edges


# ---------------------------------------------------------------------------
# propagation: bottom-up over strongly connected components


def _tarjan(nodes, adjacency):
    """Tarjan's algorithm; emits components callees-first."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    def strongconnect(v):
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            neighbors = adjacency.get(node, ())
            for i in range(pi, len(neighbors)):
                w = neighbors[i]
                if w not in index:
                    work[-1] = (node, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if recurse:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    for v in nodes:
        if v not in index:
            strongconnect(v)
    return components


def propagate(own_violations: dict, edges: dict) -> dict:
    """own_violations: node -> [Violation]; edges: node -> [node].
    Returns node -> Verdict, processing components in reverse topological
    order so verdicts flow from callees to callers."""
    nodes = list(own_violations)
    adjacency = {n: [t for t in edges.get(n, []) if t in own_violations] for n in nodes}
    components = _tarjan(nodes, adjacency)
    merged: dict = {}
    via: dict = {}
    for comp in components:
        comp_set = set(comp)
        reasons = set()
        contributors = set()
        for node in comp:
            reasons.update(own_violations[node])
            for target in adjacency[node]:
                if target in comp_set:
                    continue
                if merged[target]:
                    contributors.add(target[1])
                    contributors.update(via[target])
                    reasons.update(merged[target])
        for node in comp:
            node_via = set(contributors)
            if len(comp) > 1:
                # members of a cycle share the merged reason set
                node_via.update(
                    peer[1] for peer in comp if peer is not node and own_violations[peer]
                )
            merged[node] = set(reasons)
            via[node] = node_via
    verdicts = {}
    for node in nodes:
        reasons = sorted(merged[node], key=lambda v: (v.line, v.column, v.kind, v.detail))
        kinds = {v.kind for v in reasons}
        if kinds & _UNCERTIFIABLE_KINDS:
            status = UNCERTIFIABLE
        elif kinds:
            status = NONFUNCTIONAL
        else:
            status = FUNCTIONAL
        own = sorted(
            set(own_violations[node]), key=lambda v: (v.line, v.column, v.kind, v.detail)
        )
        verdicts[node] = Verdict(status, reasons, sorted(via[node]), own)
    return verdicts


# ---------------------------------------------------------------------------
# remediation


def suggest_remediation(reasons) -> list:
    suggestions = []

    def add(text):
        if text not in suggestions:
            suggestions.append(text)

    for kind in ALL_KINDS:
        for v in reasons:
            if v.kind != kind:
                continue
            if kind == NONLOCAL_ASSIGNMENT:
                add("return the value instead of assigning nonlocally")
            elif kind == STATE_READ:
                if v.subject:
                    add(f"lift option '{v.subject}' to an explicit parameter")
                else:
                    add("lift the option read to an explicit parameter")
            elif kind == RNG_DEPENDENCE:
                add("accept the generator's initial state as an argument")
                add("require explicit set_seed in reproducible examples")
            elif kind == GLOBAL_REFERENCE:
                add("declare an import or define locally")
            else:
                add("no automatic remediation; manual audit required")
    return suggestions


# ---------------------------------------------------------------------------
# whole-module analysis


def analyze_modules(modules, policy: Optional[dict] = None) -> AnalysisReport:
    policy = policy if policy is not None else default_policy()
    universe = {}
    for m in modules:
        if m.name in universe:
            raise MlsError(f"duplicate module name '{m.name}'")
        universe[m.name] = m
    for m in modules:
        for imp_module, _ in m.imports:
            if imp_module not in universe:
                raise MlsError(f"module '{m.name}' imports unknown module '{imp_module}'")

    own: dict = {}
    edges: dict = {}
    with reader.deep_host_stack():  # the scan recurses once per level, as the parser did
        for m in modules:
            for fname, literal in m.definitions.items():
                node = (m.name, fname)
                try:
                    facts = scan_function(fname, literal)
                except RecursionError:
                    raise MlsError(f"function '{fname}' nested too deeply", literal.loc) from None
                resolved, node_edges = resolve_names(m, facts, universe, policy)
                own[node] = facts.violations + resolved
                edges[node] = node_edges
    verdicts = propagate(own, edges)

    module_reports = []
    counts = {FUNCTIONAL: 0, NONFUNCTIONAL: 0, UNCERTIFIABLE: 0}
    for m in modules:
        reports = []
        for fname in m.definitions:
            verdict = verdicts[(m.name, fname)]
            counts[verdict.status] += 1
            reports.append(
                FunctionReport(m.name, fname, verdict, suggest_remediation(verdict.reasons))
            )
        module_reports.append((m.name, reports))
    edge_list = sorted(
        (src, dst) for src, targets in edges.items() for dst in targets
    )
    return AnalysisReport(module_reports, edge_list, dict(counts))


# ---------------------------------------------------------------------------
# report rendering


def render_json(report: AnalysisReport) -> str:
    """The report as JSON with sorted keys, a two-space indent and ASCII
    escapes: the text `json.dumps(..., sort_keys=True, indent=2)` gives
    for its dict form.  The schema is fixed, so it is written directly;
    with any indent, json encodes in Python rather than in C."""
    q = encode_basestring_ascii
    modules = []
    for mname, reports in report.modules:
        functions = []
        for fr in reports:
            verdict = fr.verdict
            reasons = [
                '{\n              "column": %d,\n              "detail": %s,'
                '\n              "kind": %s,\n              "line": %d\n            }'
                % (v.column, q(v.detail), q(v.kind), v.line)
                for v in verdict.reasons
            ]
            functions.append(
                '{\n          "function": %s,\n          "reasons": %s,'
                '\n          "status": %s,\n          "suggestions": %s,'
                '\n          "via": %s\n        }'
                % (q(fr.name), _json_array(reasons, 10), q(verdict.status),
                   _json_array(map(q, fr.suggestions), 10), _json_array(map(q, verdict.via), 10))
            )
        modules.append('{\n      "functions": %s,\n      "name": %s\n    }'
                       % (_json_array(functions, 6), q(mname)))
    s = report.summary
    return (
        '{\n  "modules": %s,\n  "summary": {\n    "functional": %d,'
        '\n    "nonfunctional": %d,\n    "uncertifiable": %d\n  }\n}\n'
        % (_json_array(modules, 2), s[FUNCTIONAL], s[NONFUNCTIONAL], s[UNCERTIFIABLE])
    )


def _json_array(items, indent: int) -> str:
    """A JSON array of encoded `items`, one per line, closed at column
    `indent`.  An encoded item is never empty, so an empty join means an
    empty array."""
    pad = "\n" + " " * (indent + 2)
    body = ("," + pad).join(items)
    return f"[{pad}{body}\n{' ' * indent}]" if body else "[]"


def render_text(report: AnalysisReport) -> str:
    lines = []
    for mname, reports in report.modules:
        lines.append(f"module {mname}")
        for fr in reports:
            lines.append(f"  {fr.name}: {fr.verdict.status.upper()}")
            for v in fr.verdict.reasons:
                lines.append(f"    - {v.kind} at {v.line}:{v.column}: {v.detail}")
            if fr.verdict.via:
                lines.append(f"    via: {', '.join(fr.verdict.via)}")
            for s in fr.suggestions:
                lines.append(f"    suggest: {s}")
    s = report.summary
    lines.append(
        "summary: "
        f"functional={s[FUNCTIONAL]} "
        f"nonfunctional={s[NONFUNCTIONAL]} "
        f"uncertifiable={s[UNCERTIFIABLE]}"
    )
    return "\n".join(lines) + "\n"
