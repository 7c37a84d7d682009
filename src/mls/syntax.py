"""Expression trees for MLS source code.

Control syntax is sugar over function calls: every composite node can be
viewed as a Call through `as_call`, which is the form the purity
analyzer walks.  Every node carries the (line, column) it came from so
analysis findings can point at source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import values

Loc = tuple  # (line, column)

# Operator precedence for the reader and deparse; higher binds tighter.
# Binary operators are left-associative.  A prefix operator applies only
# where its precedence is at least the one its position requires, so
# `1 + !x` is a syntax error.
BINARY_PRECEDENCE = {
    "+": 5, "-": 5, "*": 6, "/": 6,
    "<": 4, "<=": 4, ">": 4, ">=": 4, "==": 4, "!=": 4,
    "&&": 2, "||": 1,
}
PREFIX_PRECEDENCE = {"-": 7, "+": 7, "!": 3}
BINARY_OPS = tuple(BINARY_PRECEDENCE)
UNARY_OPS = tuple(PREFIX_PRECEDENCE)

KEYWORDS = frozenset({"function", "if", "else", "while", "TRUE", "FALSE", "NULL"})

_POSTFIX_PREC = 9


@dataclass
class Expr:
    loc: Loc = field(default=(0, 0), kw_only=True)

    # The evaluator's compiled closure for this node, cached on first
    # evaluation; a class attribute, not a field, so equality and repr
    # ignore it.
    _run = None


@dataclass
class Constant(Expr):
    value: values.Value


@dataclass
class Symbol(Expr):
    name: str


@dataclass
class Call(Expr):
    callee: Expr
    args: list  # list of (name or None, Expr)


@dataclass
class FunctionLiteral(Expr):
    formals: list  # list of (name, default Expr or None)
    body: Expr


@dataclass
class Assign(Expr):
    target: Symbol
    value: Expr


@dataclass
class SuperAssign(Expr):
    target: Symbol
    value: Expr


@dataclass
class Block(Expr):
    body: list


@dataclass
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Optional[Expr]


@dataclass
class While(Expr):
    cond: Expr
    body: Expr


@dataclass
class Index(Expr):
    obj: Expr
    indices: list


@dataclass
class IndexAssign(Expr):
    obj: Symbol
    indices: list
    value: Expr


@dataclass
class FieldAccess(Expr):
    obj: Expr
    name: str


@dataclass
class FieldAssign(Expr):
    obj: Expr
    name: str
    value: Expr


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality, ignoring source locations."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Constant):
        return values.values_equal(a.value, b.value)
    if isinstance(a, Symbol):
        return a.name == b.name
    if isinstance(a, Call):
        return (
            expr_equal(a.callee, b.callee)
            and len(a.args) == len(b.args)
            and all(
                na == nb and expr_equal(ea, eb)
                for (na, ea), (nb, eb) in zip(a.args, b.args)
            )
        )
    if isinstance(a, FunctionLiteral):
        if len(a.formals) != len(b.formals):
            return False
        for (na, da), (nb, db) in zip(a.formals, b.formals):
            if na != nb:
                return False
            if (da is None) != (db is None):
                return False
            if da is not None and not expr_equal(da, db):
                return False
        return expr_equal(a.body, b.body)
    if isinstance(a, (Assign, SuperAssign)):
        return expr_equal(a.target, b.target) and expr_equal(a.value, b.value)
    if isinstance(a, Block):
        return len(a.body) == len(b.body) and all(
            expr_equal(x, y) for x, y in zip(a.body, b.body)
        )
    if isinstance(a, If):
        if not (expr_equal(a.cond, b.cond) and expr_equal(a.then, b.then)):
            return False
        if (a.orelse is None) != (b.orelse is None):
            return False
        return a.orelse is None or expr_equal(a.orelse, b.orelse)
    if isinstance(a, While):
        return expr_equal(a.cond, b.cond) and expr_equal(a.body, b.body)
    if isinstance(a, Index):
        return (
            expr_equal(a.obj, b.obj)
            and len(a.indices) == len(b.indices)
            and all(expr_equal(x, y) for x, y in zip(a.indices, b.indices))
        )
    if isinstance(a, IndexAssign):
        return (
            expr_equal(a.obj, b.obj)
            and len(a.indices) == len(b.indices)
            and all(expr_equal(x, y) for x, y in zip(a.indices, b.indices))
            and expr_equal(a.value, b.value)
        )
    if isinstance(a, FieldAccess):
        return expr_equal(a.obj, b.obj) and a.name == b.name
    if isinstance(a, FieldAssign):
        return expr_equal(a.obj, b.obj) and a.name == b.name and expr_equal(a.value, b.value)
    raise TypeError(f"unhandled node {type(a).__name__}")


def as_call(e: Expr) -> Optional[Call]:
    """Canonical Call view of a composite node.

    Constants and symbols are not calls and map to None; every other
    node maps to an equivalent Call so analyses can treat the tree
    uniformly.
    """
    if isinstance(e, (Constant, Symbol)):
        return None
    if isinstance(e, Call):
        return e
    loc = e.loc

    def sym(name):
        return Symbol(name, loc=loc)

    def pos(args):
        return [(None, a) for a in args]

    if isinstance(e, Assign):
        return Call(sym("<-"), pos([e.target, e.value]), loc=loc)
    if isinstance(e, SuperAssign):
        return Call(sym("<<-"), pos([e.target, e.value]), loc=loc)
    if isinstance(e, Block):
        return Call(sym("{"), pos(list(e.body)), loc=loc)
    if isinstance(e, If):
        args = [e.cond, e.then] + ([e.orelse] if e.orelse is not None else [])
        return Call(sym("if"), pos(args), loc=loc)
    if isinstance(e, While):
        return Call(sym("while"), pos([e.cond, e.body]), loc=loc)
    if isinstance(e, Index):
        return Call(sym("["), pos([e.obj] + list(e.indices)), loc=loc)
    if isinstance(e, IndexAssign):
        return Call(sym("[<-"), pos([e.obj] + list(e.indices) + [e.value]), loc=loc)
    if isinstance(e, FieldAccess):
        name = Constant(values.scalar_string(e.name), loc=loc)
        return Call(sym("$"), pos([e.obj, name]), loc=loc)
    if isinstance(e, FieldAssign):
        name = Constant(values.scalar_string(e.name), loc=loc)
        return Call(sym("$<-"), pos([e.obj, name, e.value]), loc=loc)
    if isinstance(e, FunctionLiteral):
        args = [
            (name, default if default is not None else Constant(values.null_value(), loc=loc))
            for name, default in e.formals
        ]
        args.append((None, e.body))
        return Call(sym("function"), args, loc=loc)
    raise TypeError(f"unhandled node {type(e).__name__}")


def child_expressions(e: Expr) -> list:
    """Direct subexpressions, in evaluation order."""
    if isinstance(e, (Constant, Symbol)):
        return []
    if isinstance(e, Call):
        return [e.callee] + [a for _, a in e.args]
    if isinstance(e, FunctionLiteral):
        return [d for _, d in e.formals if d is not None] + [e.body]
    if isinstance(e, (Assign, SuperAssign)):
        return [e.target, e.value]
    if isinstance(e, Block):
        return list(e.body)
    if isinstance(e, If):
        out = [e.cond, e.then]
        if e.orelse is not None:
            out.append(e.orelse)
        return out
    if isinstance(e, While):
        return [e.cond, e.body]
    if isinstance(e, Index):
        return [e.obj] + list(e.indices)
    if isinstance(e, IndexAssign):
        return [e.obj] + list(e.indices) + [e.value]
    if isinstance(e, FieldAccess):
        return [e.obj]
    if isinstance(e, FieldAssign):
        return [e.obj, e.value]
    raise TypeError(f"unhandled node {type(e).__name__}")


# ---------------------------------------------------------------------------
# deparse

_SIMPLE_NAME = re.compile(r"^[A-Za-z._][A-Za-z0-9._]*$")


def _is_simple_name(name: str) -> bool:
    return bool(_SIMPLE_NAME.match(name)) and name not in KEYWORDS


def _quote_name(name: str) -> str:
    return name if _is_simple_name(name) else f"`{name}`"


def escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def _deparse_constant(v: values.Value) -> str:
    if v.kind == values.NULL:
        return "NULL"
    if v.kind == values.LOGICAL and len(v.payload) == 1:
        return "TRUE" if v.payload[0] else "FALSE"
    if v.kind == values.INTEGER and len(v.payload) == 1:
        return str(v.payload[0])
    if v.kind == values.DOUBLE and len(v.payload) == 1:
        return repr(v.payload[0])
    if v.kind == values.STRING and len(v.payload) == 1:
        return escape_string(v.payload[0])
    # non-literal constants only arise from programmatic trees
    if v.kind in values.VECTOR_KINDS:
        inner = ", ".join(
            _deparse_constant(values.Value(v.kind, [x])) for x in v.payload
        )
        return f"c({inner})"
    return f"<{v.kind}>"


def deparse(e: Expr, indent: int = 0) -> str:
    """Render an expression as source text that reparses to an equal tree."""
    return _dep(e, indent, 0)


def _dep(e: Expr, indent: int, prec: int) -> str:
    pad = "  " * indent
    if isinstance(e, Constant):
        return _deparse_constant(e.value)
    if isinstance(e, Symbol):
        return _quote_name(e.name)
    if isinstance(e, Call):
        op = e.callee.name if isinstance(e.callee, Symbol) else None
        if len(e.args) == 2 and op in BINARY_PRECEDENCE:
            p = BINARY_PRECEDENCE[op]
            lhs = _dep(e.args[0][1], indent, p)
            rhs = _dep(e.args[1][1], indent, p + 1)
            text = f"{lhs} {op} {rhs}"
            return f"({text})" if p < prec else text
        if len(e.args) == 1 and op in PREFIX_PRECEDENCE:
            p = PREFIX_PRECEDENCE[op]
            text = f"{op}{_dep(e.args[0][1], indent, p)}"
            return f"({text})" if p < prec else text
        callee = _dep(e.callee, indent, _POSTFIX_PREC)
        args = ", ".join(
            f"{_quote_name(n)} = {_dep(a, indent, 0)}" if n else _dep(a, indent, 0)
            for n, a in e.args
        )
        return f"{callee}({args})"
    if isinstance(e, Block):
        if not e.body:
            return "{\n" + pad + "}"
        inner = "\n".join("  " * (indent + 1) + _dep(s, indent + 1, 0) for s in e.body)
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(e, Index):
        obj = _dep(e.obj, indent, _POSTFIX_PREC)
        idx = ", ".join(_dep(i, indent, 0) for i in e.indices)
        return f"{obj}[{idx}]"
    if isinstance(e, FieldAccess):
        return f"{_dep(e.obj, indent, _POSTFIX_PREC)}${_quote_name(e.name)}"
    # the keyword and assignment forms bind more loosely than any operator
    if isinstance(e, FunctionLiteral):
        formals = ", ".join(
            f"{_quote_name(n)} = {_dep(d, indent, 0)}" if d is not None else _quote_name(n)
            for n, d in e.formals
        )
        text = f"function({formals}) {_dep(e.body, indent, 0)}"
    elif isinstance(e, (Assign, SuperAssign)):
        arrow = "<-" if isinstance(e, Assign) else "<<-"
        text = f"{_dep(e.target, indent, 0)} {arrow} {_dep(e.value, indent, 0)}"
    elif isinstance(e, If):
        # with an else branch, an else-less construct ending the then
        # branch must be parenthesized or the else would rebind to it
        then_prec = 1 if e.orelse is not None else 0
        text = f"if ({_dep(e.cond, indent, 0)}) {_dep(e.then, indent, then_prec)}"
        if e.orelse is not None:
            text += f" else {_dep(e.orelse, indent, 0)}"
    elif isinstance(e, While):
        text = f"while ({_dep(e.cond, indent, 0)}) {_dep(e.body, indent, 0)}"
    elif isinstance(e, IndexAssign):
        obj = _dep(e.obj, indent, _POSTFIX_PREC)
        idx = ", ".join(_dep(i, indent, 0) for i in e.indices)
        text = f"{obj}[{idx}] <- {_dep(e.value, indent, 0)}"
    elif isinstance(e, FieldAssign):
        obj = _dep(e.obj, indent, _POSTFIX_PREC)
        text = f"{obj}${_quote_name(e.name)} <- {_dep(e.value, indent, 0)}"
    else:
        raise TypeError(f"unhandled node {type(e).__name__}")
    return f"({text})" if prec > 0 else text
