"""Deterministic textual rendering of values.

The format is pinned so that repeated runs of the same program produce
byte-identical output: doubles print via repr (integral ones without a
decimal point), vectors print on a single line with the usual "[1]"
prefix, and attribute trailers follow the body.
"""

from __future__ import annotations

import math

from . import refclasses, s4, syntax, values
from .environment import entry_value


def format_double(d: float) -> str:
    if math.isnan(d):
        return "NaN"
    if math.isinf(d):
        return "Inf" if d > 0 else "-Inf"
    if d == int(d) and abs(d) < 1e16:
        return str(int(d))
    return repr(d)


def format_element(kind: str, x, quote_strings: bool = True) -> str:
    if kind == values.LOGICAL:
        return "TRUE" if x else "FALSE"
    if kind == values.INTEGER:
        return str(x)
    if kind == values.DOUBLE:
        return format_double(x)
    if kind == values.STRING:
        return syntax.escape_string(x) if quote_strings else x
    raise TypeError(kind)


_EMPTY_NAMES = {
    values.LOGICAL: "logical(0)",
    values.INTEGER: "integer(0)",
    values.DOUBLE: "numeric(0)",
    values.STRING: "character(0)",
}


def format_value(v: values.Value, interp) -> str:
    return "\n".join(_format_lines(v, interp))


def _attribute_trailer(v, interp):
    lines = []
    for name, attr in v.attributes.items():
        if name == "names":
            continue
        lines.append(f'attr(,"{name}")')
        lines.extend(_format_lines(attr, interp, with_attrs=False))
    return lines


def _format_lines(v: values.Value, interp, with_attrs: bool = True) -> list:
    lines = []
    if v.kind == values.NULL:
        lines = ["NULL"]
    elif v.kind in values.VECTOR_KINDS:
        if not v.payload:
            lines = [_EMPTY_NAMES[v.kind]]
        else:
            body = " ".join(format_element(v.kind, x) for x in v.payload)
            lines = [f"[1] {body}"]
    elif v.kind == values.LIST:
        if not v.payload:
            lines = ["list()"]
        else:
            names = values.element_names(v)
            for i, item in enumerate(v.payload):
                label = (
                    f"${names[i]}" if names is not None and names[i] else f"[[{i + 1}]]"
                )
                lines.append(label)
                lines.extend(_format_lines(item, interp))
                lines.append("")
    elif v.kind == values.CLOSURE:
        lines = syntax.deparse(
            syntax.FunctionLiteral(v.payload.formals, v.payload.body)
        ).split("\n")
    elif v.kind == values.BUILTIN:
        p = v.payload
        if isinstance(p.meta, refclasses.RefClassDef):
            lines = [f'Generator for class "{p.meta.name}"']
        elif isinstance(p.meta, s4.GenericDef):
            lines = [f'standard generic for "{p.name}"']
        else:
            lines = [f"<builtin '{p.name}'>"]
    elif v.kind == values.ENVIRONMENT:
        tag = v.payload.tag
        lines = [f"<environment: {tag}>" if tag else "<environment>"]
    elif v.kind == values.S4_INSTANCE:
        p = v.payload
        lines = [f'An object of class "{p.class_name}"']
        for name, sv in p.slot_values.items():
            lines.append(f'Slot "{name}":')
            lines.extend(_format_lines(sv, interp))
            lines.append("")
    elif v.kind == values.REF_INSTANCE:
        p = v.payload
        lines = [f'Reference class object of class "{p.class_name}"']
        for name in p.fields:
            lines.append(f'Field "{name}":')
            lines.extend(_format_lines(entry_value(p.frame[name], interp), interp))
            lines.append("")
    if with_attrs:
        lines.extend(_attribute_trailer(v, interp))
    return lines
