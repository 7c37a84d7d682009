"""Shared test utilities: state snapshots, the differential purity
harness, a generator of random pure programs, structural equality of
syntax trees, the Call view of a node, the dict form of an analysis
report, a guard against host recursion errors, and the reference
tokenizers, parser, purity scan, operator and variable read that the
fast ones are checked against."""

import contextlib
import random
import re
from dataclasses import dataclass
from typing import Optional

import pytest

from mls import ops, purity, reader, s3, syntax, values
from mls.environment import COMPARISON_OPERATORS, entry_value
from mls.interpreter import Interpreter
from mls.values import MlsError


@contextlib.contextmanager
def no_host_recursion():
    """Fail in one line if a host RecursionError escapes the block:
    pytest takes over a minute to render its traceback of thousands of
    frames."""
    try:
        yield
    except RecursionError as exc:
        raise pytest.fail.Exception(
            f"host RecursionError escaped: {exc}", pytrace=False
        ) from None


def expr_equal(a, b) -> bool:
    """Structural equality of syntax trees, ignoring source locations: the
    reader's round-trip oracle, walking each node's `syntax._LAYOUT`."""
    if type(a) is not type(b):
        return False
    for name, slots in syntax._LAYOUT[type(a)]:
        x, y = getattr(a, name), getattr(b, name)
        if slots is None:
            if not (values.values_equal(x, y) if isinstance(x, values.Value) else x == y):
                return False
            continue
        xs, ys = slots(x), slots(y)
        if len(xs) != len(ys) or not all(
            nx == ny and (ex is None) == (ey is None) and (ex is None or expr_equal(ex, ey))
            for (nx, ex), (ny, ey) in zip(xs, ys)
        ):
            return False
    return True


def as_call(e) -> Optional[syntax.Call]:
    """Canonical Call view of a composite node.

    Constants and symbols are not calls and map to None; every other
    node maps to an equivalent Call.  A sugar node's call passes its
    fields in order: a field name as a string constant and an absent
    default as NULL.
    """
    layout = syntax._LAYOUT[type(e)]
    if e.HEAD is None:
        return e if isinstance(e, syntax.Call) else None
    loc = e.loc
    args = []
    for name, slots in layout:
        v = getattr(e, name)
        if slots is None:
            args.append((None, syntax.Constant(values.scalar_string(v), loc=loc)))
        else:
            args += [
                (n, syntax.Constant(values.null_value(), loc=loc) if x is None else x)
                for n, x in slots(v)
            ]
    return syntax.Call(syntax.Symbol(e.HEAD, loc=loc), args, loc=loc)


# -- reference tokenizer: one match per token and per run of blanks or comment

_REFERENCE_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in [
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+|#[^\n]*"),
    ("NUM", r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"),
    ("STR", r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"' + r"|'[^'\\]*(?:\\[\s\S][^'\\]*)*'"),
    ("QUOTED", r"`[^`\n]*`"),
    ("SYM", r"[\w.]+"),
    ("OP", "|".join(map(re.escape, reader._MULTI_OPS)) + f"|[{re.escape(reader._SINGLE_OPS)}]"),
    ("ERROR", r"[\s\S]"),
]))


def reference_tokenize(source: str) -> list:
    """`reader.tokenize` as it was before blanks and comments joined the
    token's match: the oracle for it."""
    MlsSyntaxError = reader.MlsSyntaxError
    tokens = []
    line, line_start = 1, 0
    brackets = []
    after_newline = False
    pos = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN.match(source, pos)
        kind, text = m.lastgroup, m.group()
        col = pos - line_start + 1
        pos = m.end()
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            if not brackets or brackets[-1] == "{":
                after_newline = True
            line, line_start = line + 1, pos
            continue
        value = text
        if kind == "SYM":
            if not (text[0].isalpha() or text[0] in "._"):
                raise MlsSyntaxError(f"unexpected character {text[0]!r}", (line, col))
            if text in syntax.KEYWORDS:
                kind = "KW"
        elif kind == "OP":
            if text in "([{":
                brackets.append(text)
            elif text in ")]}" and brackets:
                brackets.pop()
        elif kind == "NUM":
            if text.isdigit():
                try:
                    kind, value = "INT", int(text)
                except ValueError:
                    raise MlsSyntaxError(
                        f"integer literal too long ({len(text)} digits)", (line, col)
                    ) from None
                if value > values.INT_MAX:
                    raise MlsSyntaxError("integer literal too large", (line, col))
            else:
                value = float(text)
        elif kind == "STR":
            value = reader._ESCAPE.sub(lambda e: reader._ESCAPED.get(e[1], e[1]), text[1:-1])
        elif kind == "QUOTED":
            kind = "SYM"
            text = value = text[1:-1]
            if not text:
                raise MlsSyntaxError("empty quoted name", (line, col))
        elif text in "\"'":
            raise MlsSyntaxError("unterminated string constant", (line, col), incomplete=True)
        elif text == "`":
            raise MlsSyntaxError("unterminated quoted name", (line, col))
        else:
            raise MlsSyntaxError(f"unexpected character {text!r}", (line, col))
        tokens.append((kind, text, value, (line, col), after_newline))
        after_newline = False
        if kind == "STR" and "\n" in text:
            line, line_start = line + text.count("\n"), m.start() + text.rindex("\n") + 1
    tokens.append(("EOF", "", None, (line, pos - line_start + 1), after_newline))
    return tokens


# -- reference reader: the parser as it was when a token was an object whose
# `loc` property built a new tuple, every operand took the three frames
# `operand`, `postfix` and `primary`, and assignment and each statement and
# call argument went through `expression`.  It reads the tokens of
# `reference_tokenize`, which matches with its own regex, not `reader._TOKEN`.


@dataclass(slots=True)
class ReferenceToken:
    type: str  # NUM INT STR SYM KW OP EOF
    text: str
    value: object
    line: int
    col: int
    after_newline: bool

    @property
    def loc(self):
        return (self.line, self.col)


class ReferenceParser:
    """`reader.Parser` as it was before tokens became tuples, leaf
    operands were built in `operand`, and `operand`'s one loop took over
    suffixes from `postfix` and assignment from `expression`: the oracle
    for each of these changes.  Trees, syntax-error messages, locations
    and the `incomplete` flag must match it."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]  # the current token; hot paths test it inline

    def peek(self) -> ReferenceToken:
        return self.tok

    def advance(self) -> ReferenceToken:
        tok = self.tok
        if tok.type != "EOF":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def at(self, type_, text=None) -> bool:
        tok = self.tok
        return tok.type == type_ and (text is None or tok.text == text)

    def expect(self, type_, text=None) -> ReferenceToken:
        tok = self.tok
        if not self.at(type_, text):
            what = text or type_
            raise reader.MlsSyntaxError(
                f"expected {what!r} but found {tok.text or 'end of input'!r}",
                tok.loc,
                incomplete=(tok.type == "EOF"),
            )
        return self.advance()

    def error_here(self, message):
        tok = self.tok
        raise reader.MlsSyntaxError(message, tok.loc, incomplete=(tok.type == "EOF"))

    # -- statement sequencing ------------------------------------------------

    def parse_program(self):
        exprs = []
        while True:
            self.skip_separators()
            if self.at("EOF"):
                return exprs
            exprs.append(self.expression())
            if not (self.at("EOF") or self.at("OP", ";") or self.tok.after_newline):
                self.error_here(f"unexpected token {self.tok.text or 'end of input'!r}")

    def skip_separators(self):
        while self.at("OP", ";"):
            self.advance()

    # -- expressions ---------------------------------------------------------

    def expression(self):
        left = self.operand(0)
        tok = self.tok
        if tok.type == "OP" and tok.text in ("<-", "<<-") and not tok.after_newline:
            self.advance()
            value = self.expression()  # right-associative
            return self.make_assignment(left, value, tok)
        if tok.type == "OP" and tok.text == "=" and not tok.after_newline:
            raise reader.MlsSyntaxError(
                "'=' is only valid for named arguments; use '<-' for assignment", tok.loc
            )
        return left

    def make_assignment(self, target, value, op_tok):
        loc = target.loc
        if op_tok.text == "<<-":
            if not isinstance(target, syntax.Symbol):
                raise reader.MlsSyntaxError("invalid superassignment target", op_tok.loc)
            return syntax.SuperAssign(target, value, loc=loc)
        if isinstance(target, syntax.Symbol):
            return syntax.Assign(target, value, loc=loc)
        if isinstance(target, syntax.Index):
            if not isinstance(target.obj, syntax.Symbol):
                raise reader.MlsSyntaxError(
                    "indexed assignment requires a named object", op_tok.loc
                )
            return syntax.IndexAssign(target.obj, target.indices, value, loc=loc)
        if isinstance(target, syntax.FieldAccess):
            return syntax.FieldAssign(target.obj, target.name, value, loc=loc)
        raise reader.MlsSyntaxError("invalid assignment target", op_tok.loc)

    def operand(self, min_prec):
        """Precedence climbing: the longest expression whose operators all
        bind at least as tightly as `min_prec`.  A binary operator must
        start on its left operand's line."""
        tok = self.tok
        prec = syntax.PREFIX_PRECEDENCE.get(tok.text) if tok.type == "OP" else None
        if prec is not None and prec >= min_prec:
            self.advance()
            inner = self.operand(prec)
            left = syntax.Call(syntax.Symbol(tok.text, loc=tok.loc), [(None, inner)], loc=tok.loc)
        else:
            left = self.postfix()
        while True:
            tok = self.tok
            if tok.type != "OP" or tok.after_newline:
                return left
            prec = syntax.BINARY_PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.operand(prec + 1)
            left = syntax.Call(
                syntax.Symbol(tok.text, loc=tok.loc), [(None, left), (None, right)], loc=left.loc
            )

    def postfix(self):
        expr = self.primary()
        while True:
            tok = self.tok
            if tok.type != "OP" or tok.after_newline:
                # a call/index/field suffix must start on the callee's line
                return expr
            text = tok.text
            if text == "(":
                self.advance()
                expr = syntax.Call(expr, self.call_args(), loc=expr.loc)
            elif text == "[":
                self.advance()
                if self.at("OP", "]"):
                    raise reader.MlsSyntaxError("missing index", tok.loc)
                indices = [self.expression()]
                while self.at("OP", ","):
                    self.advance()
                    indices.append(self.expression())
                self.expect("OP", "]")
                expr = syntax.Index(expr, indices, loc=expr.loc)
            elif text == "$":
                self.advance()
                name_tok = self.tok
                if name_tok.type not in ("SYM", "STR"):
                    self.error_here("expected a field name after '$'")
                self.advance()
                expr = syntax.FieldAccess(expr, str(name_tok.value), loc=expr.loc)
            else:
                return expr

    def call_args(self):
        args = []
        if self.at("OP", ")"):
            self.advance()
            return args
        while True:
            name = None
            tok = self.tok
            if tok.type == "SYM":
                after = self.tokens[self.pos + 1]
                if after.type == "OP" and after.text == "=":
                    name = tok.value
                    self.advance()
                    self.advance()
            args.append((name, self.expression()))
            if self.at("OP", ","):
                self.advance()
                continue
            self.expect("OP", ")")
            return args

    def primary(self):
        tok = self.tok
        if tok.type == "SYM":
            self.advance()
            return syntax.Symbol(tok.value, loc=tok.loc)
        if tok.type == "INT":
            self.advance()
            return syntax.Constant(values.scalar_int(tok.value), loc=tok.loc)
        if tok.type == "NUM":
            self.advance()
            return syntax.Constant(values.scalar_double(tok.value), loc=tok.loc)
        if tok.type == "STR":
            self.advance()
            return syntax.Constant(values.scalar_string(tok.value), loc=tok.loc)
        if tok.type == "KW":
            if tok.text == "TRUE":
                self.advance()
                return syntax.Constant(values.scalar_bool(True), loc=tok.loc)
            if tok.text == "FALSE":
                self.advance()
                return syntax.Constant(values.scalar_bool(False), loc=tok.loc)
            if tok.text == "NULL":
                self.advance()
                return syntax.Constant(values.null_value(), loc=tok.loc)
            if tok.text == "function":
                return self.function_literal()
            if tok.text == "if":
                return self.if_expr()
            if tok.text == "while":
                return self.while_expr()
            self.error_here(f"unexpected keyword {tok.text!r}")
        if tok.type == "OP" and tok.text == "(":
            self.advance()
            inner = self.expression()
            self.expect("OP", ")")
            return inner
        if tok.type == "OP" and tok.text == "{":
            return self.block()
        self.error_here(f"unexpected token {tok.text or 'end of input'!r}")

    def function_literal(self):
        start = self.expect("KW", "function")
        self.expect("OP", "(")
        formals = []
        seen = set()
        if not self.at("OP", ")"):
            while True:
                name_tok = self.tok
                if name_tok.type != "SYM":
                    self.error_here("expected a formal argument name")
                self.advance()
                if name_tok.value in seen:
                    raise reader.MlsSyntaxError(
                        f"duplicated formal argument '{name_tok.value}'", name_tok.loc
                    )
                seen.add(name_tok.value)
                default = None
                if self.at("OP", "="):
                    self.advance()
                    default = self.expression()
                formals.append((name_tok.value, default))
                if self.at("OP", ","):
                    self.advance()
                    continue
                break
        self.expect("OP", ")")
        body = self.expression()
        return syntax.FunctionLiteral(formals, body, loc=start.loc)

    def if_expr(self):
        start = self.expect("KW", "if")
        self.expect("OP", "(")
        cond = self.expression()
        self.expect("OP", ")")
        then = self.expression()
        orelse = None
        if self.at("KW", "else"):
            self.advance()
            orelse = self.expression()
        return syntax.If(cond, then, orelse, loc=start.loc)

    def while_expr(self):
        start = self.expect("KW", "while")
        self.expect("OP", "(")
        cond = self.expression()
        self.expect("OP", ")")
        body = self.expression()
        return syntax.While(cond, body, loc=start.loc)

    def block(self):
        start = self.expect("OP", "{")
        body = []
        while True:
            self.skip_separators()
            if self.at("OP", "}"):
                self.advance()
                return syntax.Block(body, loc=start.loc)
            if self.at("EOF"):
                raise reader.MlsSyntaxError("unexpected end of input in block", self.tok.loc, incomplete=True)
            body.append(self.expression())
            if self.at("OP", "}"):
                continue
            if not (self.at("OP", ";") or self.tok.after_newline):
                self.error_here(f"unexpected token {self.tok.text or 'end of input'!r}")


def reference_parse_program(source: str) -> list:
    """`reader.parse_program` through `reference_tokenize` and
    `ReferenceParser`: the oracle for it."""
    parser = ReferenceParser([
        ReferenceToken(kind, text, value, *loc, after_newline)
        for kind, text, value, loc, after_newline in reference_tokenize(source)
    ])
    try:
        with reader.deep_host_stack():
            return parser.parse_program()
    except RecursionError:
        raise reader.MlsSyntaxError("expression nested too deeply", parser.peek().loc) from None





# -- reference purity scan: locals collected in a pass of their own, then a
# walk of each node's Call view


def _reference_collect_locals(body, scope: set):
    stack = [body]
    while stack:
        e = stack.pop()
        if isinstance(e, syntax.FunctionLiteral):
            continue
        if isinstance(e, syntax.Assign):
            scope.add(e.target.name)
        if (
            isinstance(e, syntax.Call)
            and isinstance(e.callee, syntax.Symbol)
            and e.callee.name == "assign"
            and e.args
            and len(e.args) < 3 and "envir" not in [n for n, _ in e.args]  # no envir bound
            and isinstance(e.args[0][1], syntax.Constant)
            and e.args[0][1].value.kind == values.STRING
        ):
            scope.add(e.args[0][1].value.payload[0])
        stack.extend(syntax.child_expressions(e))


def reference_scan_function(name, literal):
    """`purity.scan_function` as it was when it walked each function body
    twice, once for its locals and once for its uses, and each sugar node
    through `as_call`: the oracle for it."""
    facts = purity.FunctionFacts(name)
    grammar = ("{", "if", "while", "[", "[<-", "$", "$<-") + syntax.BINARY_OPS + syntax.UNARY_OPS

    def walk_function(fl, enclosing):
        scope = enclosing | {n for n, _ in fl.formals}
        _reference_collect_locals(fl.body, scope)
        for _, default in fl.formals:
            if default is not None:
                walk(default, scope)
        walk(fl.body, scope)

    def walk(e, scope):
        if isinstance(e, syntax.Symbol):
            if e.name not in scope:
                facts.name_uses.setdefault(e.name, e.loc)
            return
        if isinstance(e, syntax.Constant):
            return
        if isinstance(e, syntax.FunctionLiteral):
            walk_function(e, scope)
            return
        call = as_call(e)
        callee = call.callee
        if isinstance(callee, syntax.Symbol):
            cname = callee.name
            assigns = len(call.args) == 2
            if cname == "<<-" and assigns:
                target, value = call.args[0][1], call.args[1][1]
                facts.violations.append(purity.Violation(
                    purity.NONLOCAL_ASSIGNMENT, e.loc[0], e.loc[1], syntax.deparse(e),
                    subject=getattr(target, "name", None),
                ))
                walk(value, scope)
                return
            if cname == "<-" and assigns:
                walk(call.args[1][1], scope)
                return
            if cname in grammar:
                for _, arg in call.args:
                    walk(arg, scope)
                return
            if cname not in scope:
                facts.callees.append(call)
            for _, arg in call.args:
                walk(arg, scope)
            return
        facts.violations.append(purity.Violation(
            purity.DYNAMIC_CODE, callee.loc[0], callee.loc[1],
            f"computed callee: {syntax.deparse(callee)}",
        ))
        walk(callee, scope)
        for _, arg in call.args:
            walk(arg, scope)

    walk_function(literal, set())
    return facts


# -- reference operator and variable read: `ops`' own scalar branches and
# `Environment.get_value`, which operator sites and symbol nodes replaced


def _reference_plain_scalars(a, b) -> bool:
    number = (values.INTEGER, values.DOUBLE)
    return (a.kind in number and b.kind in number and len(a.payload) == 1
            and len(b.payload) == 1 and not a.attributes and not b.attributes)


def reference_apply_operator(interp, op, lhs, rhs, env, loc=None):
    """`lhs op rhs` as a call site applied it before it computed scalars in
    place: S3 dispatch on an explicit class attribute, then the scalar
    branch of `ops.arith_binary` or `ops.compare_binary`, then their
    vector path.  It has no integer bound."""
    if "class" in lhs.attributes or "class" in rhs.attributes:
        dispatched = s3.dispatch_binary_op(interp, op, lhs, rhs, env, loc)
        if dispatched is not None:
            return dispatched
    if _reference_plain_scalars(lhs, rhs):
        x, y = lhs.payload[0], rhs.payload[0]
        if op in COMPARISON_OPERATORS:
            return values.Value(values.LOGICAL, [bool(ops._COMPARE[op](x, y))])
        if op == "/":
            return values.Value(values.DOUBLE, [ops._safe_div(x, y)])
        if values.DOUBLE in (lhs.kind, rhs.kind):
            return values.Value(values.DOUBLE, [float(ops._ARITH[op](x, y))])
        return values.Value(values.INTEGER, [ops._ARITH[op](x, y)])
    compute = ops.compare_binary if op in COMPARISON_OPERATORS else ops.arith_binary
    return compute(op, lhs, rhs, loc)


def lookup_entry(env, name):
    """The first frame entry for `name` from `env` outward, or None."""
    while env is not None:
        entry = env.frame.get(name)
        if entry is not None:
            return entry
        env = env.parent
    return None


def reference_get_value(env, name, interp, loc=None):
    """The value of `name` seen from `env`: its first entry, read through
    `environment.entry_value`."""
    entry = lookup_entry(env, name)
    if entry is None:
        raise MlsError(f"object '{name}' not found", loc)
    return entry_value(entry, interp, loc)


def value_fingerprint(v):
    """A value's kind, payload elements with their host types (so 1 and
    1.0, -0.0 and 0.0, NaN and NaN compare as printing sees them) and
    attributes; a function, environment or instance by identity."""
    if v.kind == values.LIST:
        payload = [value_fingerprint(item) for item in v.payload]
    elif v.kind in values.VECTOR_KINDS:
        payload = [(type(x).__name__, repr(x)) for x in v.payload]
    else:
        payload = id(v.payload)
    return v.kind, payload, sorted((k, value_fingerprint(a)) for k, a in v.attributes.items())


def report_as_dict(report) -> dict:
    """The dict form of a `purity.AnalysisReport`; `json.dumps` of it
    with sorted keys and indent 2 is the oracle for `purity.render_json`."""
    return {
        "modules": [
            {
                "name": mname,
                "functions": [
                    {
                        "function": fr.name,
                        "status": fr.verdict.status,
                        "reasons": [
                            {
                                "kind": v.kind,
                                "line": v.line,
                                "column": v.column,
                                "detail": v.detail,
                            }
                            for v in fr.verdict.reasons
                        ],
                        "via": list(fr.verdict.via),
                        "suggestions": list(fr.suggestions),
                    }
                    for fr in reports
                ],
            }
            for mname, reports in report.modules
        ],
        "summary": {
            "functional": report.summary[purity.FUNCTIONAL],
            "nonfunctional": report.summary[purity.NONFUNCTIONAL],
            "uncertifiable": report.summary[purity.UNCERTIFIABLE],
        },
    }


def snapshot_frame(env):
    """Frozen copies of every value entry in one frame; other entries as they are."""
    return {name: values.deep_copy(entry) if entry.__class__ is values.Value else entry
            for name, entry in env.frame.items()}


def frame_matches_snapshot(env, snap):
    if set(env.frame) != set(snap):
        return False
    for name, entry in env.frame.items():
        expected = snap[name]
        if expected.__class__ is values.Value:
            if entry.__class__ is not values.Value or not values.values_equal(entry, expected):
                return False
        elif entry is not expected:
            return False
    return True


def interpreter_snapshot(interp):
    return {
        "global": snapshot_frame(interp.global_env),
        "base": dict(interp.base_env.frame),
        "classes": set(interp.s4.classes),
    }


def snapshot_unchanged(interp, snap):
    if not frame_matches_snapshot(interp.global_env, snap["global"]):
        return False
    if dict(interp.base_env.frame) != snap["base"]:
        return False
    return set(interp.s4.classes) == snap["classes"]


def load_universe(modules):
    """Evaluate every module's definitions into one interpreter."""
    interp = Interpreter()
    for m in modules:
        for fname, literal in m.definitions.items():
            interp.global_env.bind(fname, interp.eval(literal, interp.global_env), interp)
    return interp


def differential_check(modules, call_source):
    """Evaluate a call twice against snapshotted interpreter state; the
    results must agree and nothing outside the call may change."""
    results = []
    for _ in range(2):
        interp = load_universe(modules)
        snap = interpreter_snapshot(interp)
        value = interp.eval_source(call_source)
        assert snapshot_unchanged(interp, snap), f"state changed by {call_source}"
        results.append(value)
    assert values.values_equal(results[0], results[1]), f"nondeterministic: {call_source}"
    return results[0]


class PureProgramGenerator:
    """Random programs in the pure subset: scalar arithmetic, locals,
    conditionals, bounded loops, vector rebuilds, and calls between the
    generated functions.  Nothing touches nonlocal state."""

    def __init__(self, seed):
        self.rnd = random.Random(seed)

    def literal(self):
        if self.rnd.random() < 0.5:
            return str(self.rnd.randint(0, 9))
        return repr(round(self.rnd.uniform(0.0, 4.0), 3))

    def scalar_expr(self, names, depth=0):
        choices = ["literal"]
        if names:
            choices += ["name", "name"]
        if depth < 2:
            choices += ["binary", "binary", "unary"]
        kind = self.rnd.choice(choices)
        if kind == "literal":
            return self.literal()
        if kind == "name":
            return self.rnd.choice(names)
        if kind == "unary":
            return f"-{self.scalar_expr(names, depth + 1)}"
        op = self.rnd.choice(["+", "-", "*"])
        return (
            f"({self.scalar_expr(names, depth + 1)} {op} "
            f"{self.scalar_expr(names, depth + 1)})"
        )

    def condition(self, names):
        op = self.rnd.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"({self.scalar_expr(names)} {op} {self.scalar_expr(names)})"

    def function_body(self, globals_, callables):
        names = ["a", "b"] + [f"g{i + 1}[1]" for i in range(len(globals_))]
        stmts = []
        locals_ = []
        for i in range(self.rnd.randint(1, 3)):
            local = f"t{i + 1}"
            style = self.rnd.random()
            if style < 0.35 or not callables:
                stmts.append(f"{local} <- {self.scalar_expr(names)}")
            elif style < 0.5:
                stmts.append(
                    f"{local} <- if {self.condition(names)} "
                    f"{self.scalar_expr(names)} else {self.scalar_expr(names)}"
                )
            elif style < 0.65:
                callee = self.rnd.choice(callables)
                stmts.append(
                    f"{local} <- {callee}({self.scalar_expr(names)}, {self.scalar_expr(names)})"
                )
            elif style < 0.75:
                stmts.append(
                    f"rec{i} <- list(lo = {self.scalar_expr(names)}, "
                    f"hi = {self.scalar_expr(names)})"
                )
                stmts.append(f"rec{i}$mid <- {self.scalar_expr(names)}")
                stmts.append(f"{local} <- rec{i}$lo + rec{i}$mid")
            elif style < 0.85:
                stmts.append(f"inner{i} <- function(z) z + {self.scalar_expr(names)}")
                stmts.append(f"{local} <- inner{i}({self.scalar_expr(names)})")
            else:
                stmts.append(f"{local} <- 0")
                stmts.append(f"ctr{i} <- {self.rnd.randint(1, 3)}")
                stmts.append(f"while (ctr{i} > 0) {{")
                stmts.append(f"  {local} <- {local} + {self.scalar_expr(names)}")
                stmts.append(f"  ctr{i} <- ctr{i} - 1")
                stmts.append("}")
            locals_.append(local)
            names.append(local)
        if self.rnd.random() < 0.5 and locals_:
            vec = ", ".join([self.scalar_expr(names)] * self.rnd.randint(2, 3))
            stmts.append(f"v <- c({vec})")
            stmts.append(f"v[{self.rnd.randint(1, 2)}] <- {self.scalar_expr(names)}")
            stmts.append("v[1]")
        else:
            stmts.append(self.scalar_expr(names))
        return stmts

    def program(self):
        lines = []
        n_globals = self.rnd.randint(1, 3)
        for i in range(n_globals):
            items = ", ".join(self.literal() for _ in range(self.rnd.randint(1, 4)))
            lines.append(f"g{i + 1} <- c({items})")
        n_funcs = self.rnd.randint(1, 3)
        has_default = []
        for i in range(n_funcs):
            callables = [f"f{j + 1}" for j in range(i)]
            has_default.append(self.rnd.random() < 0.4)
            default = f" = {self.literal()}" if has_default[i] else ""
            body = self.function_body(range(n_globals), callables)
            lines.append(f"f{i + 1} <- function(a, b{default}) {{")
            lines.extend(f"  {s}" for s in body)
            lines.append("}")
        idx = self.rnd.randrange(n_funcs)
        globals_as_args = [f"g{i + 1}[1]" for i in range(n_globals)]
        args = [self.scalar_expr(globals_as_args)]
        if not (has_default[idx] and self.rnd.random() < 0.3):
            args.append(self.scalar_expr(globals_as_args))
        call = f"f{idx + 1}({', '.join(args)})"
        return "\n".join(lines), call
