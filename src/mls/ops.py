"""Elementwise vector operations, concatenation, and indexing.

These implement value semantics directly: every operation builds a new
value and never mutates its inputs, which is what lets bindings share
structure safely.

Work is done per value, not per element, wherever no element needs its
own decision: `c()` builds its payload with one bulk copy per part and
builds a names vector only when some part has an outer name or a
`names` attribute.  `BINARY` is the one definition of each binary
operator a call site applies directly, its element function and result
kind: the builtins, `s3.apply_operator`, the vector paths here
and a call site's in-place path on two numeric scalars all read it.

An integer result beyond `values.INT_MAX` in magnitude is an error.
"""

from __future__ import annotations

import math
import operator

from . import printer, values
from .values import MlsError, Value

_NUMERIC_RANK = {values.LOGICAL: 0, values.INTEGER: 1, values.DOUBLE: 2, values.STRING: 3}


def _as_number_list(v: Value, op, loc):
    """An operand's numbers and their kind; `op` is None for a unary operator."""
    if v.kind == values.LOGICAL:
        return [int(x) for x in v.payload], values.INTEGER
    if v.kind in (values.INTEGER, values.DOUBLE):
        return v.payload, v.kind
    raise MlsError("invalid argument to unary operator" if op is None
                   else f"non-numeric argument to binary operator '{op}'", loc)


def _recycle(xs, ys, loc):
    m, n = len(xs), len(ys)
    if m == 0 or n == 0:
        return [], []
    if m == n:
        return xs, ys
    if m == 1:
        return xs * n, ys
    if n == 1:
        return xs, ys * m
    raise MlsError(f"operand lengths do not match ({m} vs {n})", loc)


def _result_names(result_len, a: Value, b: Value):
    for operand in (a, b):
        names = operand.attributes.get("names")
        if names is not None and len(names.payload) == result_len:
            return names
    return None


def _safe_div(x, y):
    x = float(x)
    y = float(y)
    if y != 0.0:
        return x / y
    if math.isnan(x) or x == 0.0:
        return float("nan")
    return math.copysign(1.0, x) * math.copysign(1.0, y) * math.inf


def arith_unary(op: str, v: Value, loc=None) -> Value:
    xs, kind = _as_number_list(v, None, loc)
    if op == "-":
        xs = [-x for x in xs]
    names = v.attributes.get("names")
    if names is not None and len(names.payload) == len(xs):
        return Value(kind, xs, {"names": names})
    return Value(kind, xs)


def _check_bound(out: list, what: str, loc):
    """Fail if an element of an integer payload is beyond `values.INT_MAX`."""
    if out and (max(out) > values.INT_MAX or min(out) < -values.INT_MAX):
        raise MlsError(f"integer overflow in {what}", loc)


def arith_binary(op: str, a: Value, b: Value, loc=None) -> Value:
    fn, kind = BINARY[op]
    xs, ka = _as_number_list(a, op, loc)
    ys, kb = _as_number_list(b, op, loc)
    xs, ys = _recycle(xs, ys, loc)
    # a DOUBLE payload holds floats, and int-op-float is a float
    out = [fn(x, y) for x, y in zip(xs, ys)]
    if kind is None:
        kind = values.DOUBLE if values.DOUBLE in (ka, kb) else values.INTEGER
        if kind == values.INTEGER:
            _check_bound(out, f"'{op}'", loc)
    names = _result_names(len(out), a, b)
    if names is not None:
        return Value(kind, out, {"names": names})
    return Value(kind, out)


# name -> (element function, result kind); a None kind is the operands':
# integer, bound-checked, unless one of them is a double
BINARY = {"+": (operator.add, None), "-": (operator.sub, None), "*": (operator.mul, None),
          "/": (_safe_div, values.DOUBLE),
          "<": (operator.lt, values.LOGICAL), "<=": (operator.le, values.LOGICAL),
          ">": (operator.gt, values.LOGICAL), ">=": (operator.ge, values.LOGICAL),
          "==": (operator.eq, values.LOGICAL), "!=": (operator.ne, values.LOGICAL)}


def compare_binary(op: str, a: Value, b: Value, loc=None) -> Value:
    if values.STRING in (a.kind, b.kind):
        if a.kind != values.STRING or b.kind != values.STRING:
            raise MlsError(f"comparison ({op}) requires compatible types", loc)
        xs, ys = a.payload, b.payload
    else:
        xs, _ = _as_number_list(a, op, loc)
        ys, _ = _as_number_list(b, op, loc)
    xs, ys = _recycle(xs, ys, loc)
    fn = BINARY[op][0]
    out = [fn(x, y) for x, y in zip(xs, ys)]
    names = _result_names(len(out), a, b)
    if names is not None:
        return Value(values.LOGICAL, out, {"names": names})
    return Value(values.LOGICAL, out)


def logical_not(v: Value, loc=None) -> Value:
    if v.kind == values.LOGICAL:
        return Value(values.LOGICAL, [not x for x in v.payload])
    if v.kind in (values.INTEGER, values.DOUBLE):
        return Value(values.LOGICAL, [x == 0 for x in v.payload])
    raise MlsError("invalid argument type to '!'", loc)


def truthy(v: Value, loc=None) -> bool:
    if v.kind == values.NULL:
        raise MlsError("argument is of length zero", loc)
    if v.kind in (values.LOGICAL, values.INTEGER, values.DOUBLE):
        if len(v.payload) == 0:
            raise MlsError("argument is of length zero", loc)
        x = v.payload[0]
        if v.kind == values.DOUBLE and math.isnan(x):
            raise MlsError("missing value where TRUE/FALSE needed", loc)
        return bool(x)
    raise MlsError("argument is not interpretable as logical", loc)


def _coerce_vector_elements(items, from_kind, to_kind):
    if from_kind == to_kind:
        return list(items)
    if to_kind == values.STRING:
        return [printer.format_element(from_kind, x, quote_strings=False) for x in items]
    if to_kind == values.DOUBLE:
        return [float(x) for x in items]
    return [int(x) for x in items]  # logical to integer, the one coercion left


def concat(args, loc=None) -> Value:
    """The c() builtin: args is a list of (name or None, Value).  A result
    longer than `values.MAX_LENGTH` is an error before it is built."""
    parts = [(n, v) for n, v in args if not values.is_null(v)]
    if not parts:
        return values.null_value()
    if sum(len(v.payload) if v.kind == values.LIST or v.kind in values.VECTOR_KINDS else 1
           for _, v in parts) > values.MAX_LENGTH:
        raise MlsError(f"c() would build more than {values.MAX_LENGTH} elements", loc)
    items = []
    if any(v.kind not in values.VECTOR_KINDS for _, v in parts):
        kind = values.LIST
        for _, v in parts:
            if v.kind == values.LIST:
                items.extend(v.payload)
            elif v.kind in values.VECTOR_KINDS:
                items.extend(Value(v.kind, [x]) for x in v.payload)
            else:
                items.append(v)
    else:
        kind = max((v.kind for _, v in parts), key=lambda k: _NUMERIC_RANK[k])
        for _, v in parts:
            items.extend(v.payload if v.kind == kind
                         else _coerce_vector_elements(v.payload, v.kind, kind))
    # no outer name and no names attribute means every name is ""
    if not any(name or "names" in v.attributes for name, v in parts):
        return Value(kind, items)
    names = []
    for name, v in parts:
        spliced = v.kind == values.LIST or v.kind in values.VECTOR_KINDS
        n = len(v.payload) if spliced else 1
        inner = (values.element_names(v) if spliced else None) or [""] * n
        names.extend(_spliced_name(name, inner[i], i, n) for i in range(n))
    if any(names):
        return Value(kind, items, {"names": values.string_vec(names)})
    return Value(kind, items)


def _spliced_name(outer, inner, i, n):
    if inner:
        return inner
    if outer:
        return outer if n == 1 else f"{outer}{i + 1}"
    return ""


def _positions(idx: Value, length: int, names, loc):
    """Resolve an index vector to 0-based positions."""
    if idx.kind in (values.INTEGER, values.DOUBLE):
        out = []
        for x in idx.payload:
            if idx.kind == values.DOUBLE and (not math.isfinite(x) or x != int(x)):
                raise MlsError(f"invalid index {printer.format_double(x)}", loc)
            if not 1 <= x <= length:
                shown = printer.format_element(idx.kind, x)
                if x < 1:
                    raise MlsError(f"invalid index {shown}", loc)
                raise MlsError(f"index {shown} out of bounds (length {length})", loc)
            out.append(int(x) - 1)
        return out
    if idx.kind == values.LOGICAL:
        if len(idx.payload) != length:
            raise MlsError(
                f"logical index length {len(idx.payload)} does not match length {length}", loc
            )
        return [i for i, keep in enumerate(idx.payload) if keep]
    if idx.kind == values.STRING:
        if names is None:
            raise MlsError("cannot index by name: object has no names", loc)
        out = []
        for s in idx.payload:
            try:
                out.append(names.index(s))
            except ValueError:
                raise MlsError(f"undefined name '{s}' in index", loc) from None
        return out
    raise MlsError("invalid index type", loc)


def index_get(obj: Value, indices, loc=None) -> Value:
    if len(indices) != 1:
        raise MlsError("matrix indexing is not supported", loc)
    if obj.kind == values.NULL:
        raise MlsError("cannot index NULL", loc)
    if obj.kind not in values.VECTOR_KINDS and obj.kind != values.LIST:
        cls = values.implicit_class(obj).payload[0]
        raise MlsError(f"object of class '{cls}' is not subsettable", loc)
    names = values.element_names(obj)
    pos = _positions(indices[0], len(obj.payload), names, loc)
    payload = [obj.payload[i] for i in pos]
    if names is not None:
        return Value(obj.kind, payload, {"names": values.string_vec([names[i] for i in pos])})
    return Value(obj.kind, payload)


def index_assign(obj: Value, indices, v: Value, loc=None) -> Value:
    if len(indices) != 1:
        raise MlsError("matrix indexing is not supported", loc)
    if obj.kind == values.LIST:
        return _list_index_assign(obj, indices[0], v, loc)
    if obj.kind not in values.VECTOR_KINDS:
        cls = values.implicit_class(obj).payload[0]
        raise MlsError(f"object of class '{cls}' is not subsettable", loc)
    if v.kind not in values.VECTOR_KINDS:
        raise MlsError("replacement value must be a vector", loc)
    names = values.element_names(obj)
    pos = _positions(indices[0], len(obj.payload), names, loc)
    kind = max(obj.kind, v.kind, key=lambda k: _NUMERIC_RANK[k])
    payload = _coerce_vector_elements(obj.payload, obj.kind, kind)
    repl = _coerce_vector_elements(v.payload, v.kind, kind)
    if len(repl) == 1:
        repl = repl * len(pos)
    if len(repl) != len(pos):
        raise MlsError(
            f"replacement length {len(v.payload)} does not match {len(pos)} positions", loc
        )
    for p, x in zip(pos, repl):
        payload[p] = x
    return Value(kind, payload, obj.attributes)


def _list_index_assign(obj: Value, idx: Value, v: Value, loc):
    names = values.element_names(obj)
    if idx.kind == values.STRING and len(idx.payload) == 1:
        return field_assign_list(obj, idx.payload[0], v, loc)
    pos = _positions(idx, len(obj.payload), names, loc)
    if len(pos) != 1:
        raise MlsError("list assignment requires a single position", loc)
    payload = list(obj.payload)
    payload[pos[0]] = v
    return Value(values.LIST, payload, obj.attributes)


def field_get_list(obj: Value, name: str) -> Value:
    names = values.element_names(obj)
    if names is not None and name in names:
        return obj.payload[names.index(name)]
    return values.null_value()


def field_assign_list(obj: Value, name: str, v: Value, loc=None) -> Value:
    if obj.kind == values.NULL:
        obj = Value(values.LIST, [])
    names = list(values.element_names(obj) or [""] * len(obj.payload))
    payload = list(obj.payload)
    if name in names:
        i = names.index(name)
        if values.is_null(v):
            del payload[i]
            del names[i]
        else:
            payload[i] = v
    elif not values.is_null(v):
        payload.append(v)
        names.append(name)
    out = Value(values.LIST, payload, dict(obj.attributes))
    if any(names):
        out.attributes["names"] = values.string_vec(names)
    else:
        out.attributes.pop("names", None)
    return out


def vector_sum(v: Value, loc=None) -> Value:
    if v.kind == values.LOGICAL:
        return values.scalar_int(sum(1 for x in v.payload if x))
    if v.kind == values.INTEGER:
        total = [sum(v.payload)]
        _check_bound(total, "sum()", loc)
        return Value(values.INTEGER, total)
    if v.kind == values.DOUBLE:
        try:
            return values.scalar_double(math.fsum(v.payload))
        except (ValueError, OverflowError):  # Inf - Inf, or a partial sum past the largest double
            return values.scalar_double(sum(v.payload))
    raise MlsError("invalid argument to sum()", loc)
