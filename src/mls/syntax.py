"""Expression trees for MLS source code.

Control syntax is sugar over function calls: every composite node other
than a Call names, in `HEAD`, the function its call form calls, and the
purity analyzer reads that name and the node's children.  Every node
carries the (line, column) it came from so analysis findings can point
at source.

Each node dataclass declares its children once, in its field
annotations; `child_expressions` walks the `_LAYOUT` read from them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Optional

from . import values

Loc = tuple  # (line, column)
Exprs = list  # list of Expr
Args = list  # list of (name or None, Expr)
Formals = list  # list of (name, default Expr or None)

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

    # The function a sugar node's call form calls: `<-` for an Assign,
    # `{` for a Block; None for a Constant, a Symbol or a Call.
    HEAD = None


@dataclass
class Constant(Expr):
    value: values.Value


@dataclass
class Symbol(Expr):
    name: str


@dataclass
class Call(Expr):
    callee: Expr
    args: Args


@dataclass
class FunctionLiteral(Expr):
    HEAD = "function"
    formals: Formals
    body: Expr


@dataclass
class Assign(Expr):
    HEAD = "<-"
    target: Symbol
    value: Expr


@dataclass
class SuperAssign(Expr):
    HEAD = "<<-"
    target: Symbol
    value: Expr


@dataclass
class Block(Expr):
    HEAD = "{"
    body: Exprs


@dataclass
class If(Expr):
    HEAD = "if"
    cond: Expr
    then: Expr
    orelse: Optional[Expr]


@dataclass
class While(Expr):
    HEAD = "while"
    cond: Expr
    body: Expr


@dataclass
class Index(Expr):
    HEAD = "["
    obj: Expr
    indices: Exprs


@dataclass
class IndexAssign(Expr):
    HEAD = "[<-"
    obj: Symbol
    indices: Exprs
    value: Expr


@dataclass
class FieldAccess(Expr):
    HEAD = "$"
    obj: Expr
    name: str


@dataclass
class FieldAssign(Expr):
    HEAD = "$<-"
    obj: Expr
    name: str
    value: Expr


# How a field holds subexpressions, by its annotation: a function from
# the field's value to its (argument name, Expr or None) slots, or None
# for a leaf compared by value.
_SLOTS = {
    "Expr": lambda v: ((None, v),),
    "Symbol": lambda v: ((None, v),),
    "Optional[Expr]": lambda v: () if v is None else ((None, v),),
    "Exprs": lambda v: [(None, x) for x in v],
    "Args": lambda v: v,
    "Formals": lambda v: v,
    "str": None,
    "values.Value": None,
}


class _Layouts(dict):
    # a node class without a layout is not a node of this module
    def __missing__(self, cls):
        raise TypeError(f"unhandled node {cls.__name__}")


# Each node class's fields after `loc`, in evaluation order, with their
# slot functions; an annotation missing from _SLOTS fails here.
_LAYOUT = _Layouts(
    (cls, tuple((f.name, _SLOTS[f.type]) for f in fields(cls) if f.name != "loc"))
    for cls in Expr.__subclasses__()
)


def child_expressions(e: Expr) -> list:
    """Direct subexpressions, in evaluation order."""
    out = []
    for name, slots in _LAYOUT[type(e)]:
        if slots is not None:
            for _, x in slots(getattr(e, name)):
                if x is not None:
                    out.append(x)
    return out


# ---------------------------------------------------------------------------
# deparse

_SIMPLE_NAME = re.compile(r"^[A-Za-z._][A-Za-z0-9._]*$")


def _is_simple_name(name: str) -> bool:
    return bool(_SIMPLE_NAME.match(name)) and name not in KEYWORDS


def _quote_name(name: str) -> str:
    return name if _is_simple_name(name) else f"`{name}`"


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"})


def escape_string(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


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
