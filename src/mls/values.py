"""Runtime values for MLS.

Every datum the interpreter touches is a Value: a kind tag, a
kind-specific payload, and an ordered attribute map.  Vectors are the
basic data (a scalar is just a length-1 vector).  Environments and
reference-class instances are the only kinds with aliasing identity;
everything else behaves as if assignment copied it.

A Value, its payload and its attribute map are never written after the
value is built: every modifying operation builds a fresh value.  Values
may therefore share payloads and attributes freely, and copying one is
never needed.  A value built without attributes shares the one
read-only empty map `NO_ATTRIBUTES`, so a site that gives a fresh value
attributes passes its dict to the constructor; and every NULL is the one
value `null_value()` returns.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Optional

# Value kinds.
NULL = "null"
LOGICAL = "logical"
INTEGER = "integer"
DOUBLE = "double"
STRING = "string"
LIST = "list"
CLOSURE = "closure"
BUILTIN = "builtin"
ENVIRONMENT = "environment"
S4_INSTANCE = "s4instance"
REF_INSTANCE = "refinstance"

VECTOR_KINDS = (LOGICAL, INTEGER, DOUBLE, STRING)
FORMAL_KINDS = (S4_INSTANCE, REF_INSTANCE)

# The largest integer magnitude: a larger literal is a syntax error and a
# larger arithmetic result an error.  R's 2^31 - 1 would be too small for
# programs that print 17! as an integer.
INT_MAX = 2**63 - 1

# The longest vector a builtin builds from a count it is given: a count
# past it is an error before anything is allocated.  2^24 doubles, with
# their host objects, fit well inside a 1.5 GB address space.
MAX_LENGTH = 2**24

_BASE_CLASS_NAMES = {
    NULL: "NULL",
    LOGICAL: "logical",
    INTEGER: "integer",
    DOUBLE: "numeric",
    STRING: "character",
    LIST: "list",
    CLOSURE: "function",
    BUILTIN: "function",
    ENVIRONMENT: "environment",
}


class MlsError(Exception):
    """A runtime or analysis error surfaced to MLS programs."""

    def __init__(self, message: str, loc=None):
        super().__init__(message)
        self.message = message
        self.loc = loc

    def __str__(self):
        if self.loc is not None:
            return f"{self.message} (line {self.loc[0]}, column {self.loc[1]})"
        return self.message


NO_ATTRIBUTES = MappingProxyType({})


class Value:
    __slots__ = ("kind", "payload", "attributes")

    def __init__(self, kind: str, payload: Any = None, attributes=NO_ATTRIBUTES):
        self.kind = kind
        self.payload = payload
        self.attributes = attributes

    def __eq__(self, other):
        if other.__class__ is not Value:
            return NotImplemented
        return (self.kind, self.payload, self.attributes) == (
            other.kind, other.payload, other.attributes)

    __hash__ = None

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):  # debugging aid only; user printing lives in printer
        return f"Value({self.kind}, {self.payload!r})"


@dataclass
class Closure:
    """A function literal plus the environment it was evaluated in."""

    formals: list  # list of (name, default Expression or None)
    body: Any  # Expression
    enclosure: Any  # Environment


@dataclass
class S4Payload:
    class_name: str
    slot_values: dict  # name -> Value


_NULL = Value(NULL)


def null_value() -> Value:
    return _NULL


def logical_vec(items) -> Value:
    return Value(LOGICAL, [bool(x) for x in items])


def int_vec(items) -> Value:
    return Value(INTEGER, [int(x) for x in items])


def double_vec(items) -> Value:
    return Value(DOUBLE, [float(x) for x in items])


def string_vec(items) -> Value:
    return Value(STRING, [str(x) for x in items])


def list_value(items, names=None) -> Value:
    if names is None:
        return Value(LIST, list(items))
    return Value(LIST, list(items), {"names": string_vec(names)})


def scalar_bool(x: bool) -> Value:
    return Value(LOGICAL, [bool(x)])


def scalar_int(x: int) -> Value:
    return Value(INTEGER, [int(x)])


def scalar_double(x: float) -> Value:
    return Value(DOUBLE, [float(x)])


def scalar_string(x: str) -> Value:
    return Value(STRING, [str(x)])


def is_null(v: Value) -> bool:
    return v.kind == NULL


def is_function(v: Value) -> bool:
    return v.kind in (CLOSURE, BUILTIN)


def implicit_class(v: Value) -> Value:
    """The class vector used for dispatch: the `class` attribute when
    present, otherwise a synthesized one-element vector naming the base
    kind."""
    cls = v.attributes.get("class")
    if cls is not None and cls.kind == STRING and len(cls.payload) > 0:
        return cls
    if v.kind in (S4_INSTANCE, REF_INSTANCE):
        return string_vec([v.payload.class_name])
    return string_vec([_BASE_CLASS_NAMES[v.kind]])


def get_attribute(v: Value, name: str) -> Value:
    attr = v.attributes.get(name)
    return attr if attr is not None else null_value()


def set_attribute(v: Value, name: str, attr: Value) -> Value:
    """Return a value identical to v except for the named attribute.

    Setting an attribute to NULL removes it.  The `class` attribute must
    be a nonempty string vector; `names` on a vector or list must be a
    string vector matching the element count.
    """
    if name == "class" and not is_null(attr):
        if attr.kind != STRING or len(attr.payload) == 0:
            raise MlsError("invalid class attribute")
    if name == "names" and not is_null(attr) and v.kind in VECTOR_KINDS + (LIST,):
        if attr.kind != STRING:
            raise MlsError("invalid names attribute: not a character vector")
        if len(attr.payload) != len(v.payload):
            raise MlsError(
                f"names attribute length {len(attr.payload)} differs from "
                f"element count {len(v.payload)}"
            )
    out = Value(v.kind, v.payload, dict(v.attributes))
    if is_null(attr):
        out.attributes.pop(name, None)
    else:
        out.attributes[name] = attr
    return out


def deep_copy(v: Value) -> Value:
    """The copy that `copy()` makes of anything but a reference instance.

    Values are never written after construction, so a non-reference
    value is its own copy.  Environments, and reference instances nested
    in other values, keep their aliasing identity: the copy is the
    reference.  `refclasses.copy_instance` gives a reference instance
    itself a fresh frame.
    """
    return v


def _double_eq(a: float, b: float) -> bool:
    # bitwise comparison, except NaN compares equal to NaN
    if math.isnan(a) and math.isnan(b):
        return True
    return struct.pack("<d", a) == struct.pack("<d", b)


def values_equal(a: Value, b: Value) -> bool:
    """Structural equality used by tests and state snapshots."""
    if a.kind != b.kind:
        return False
    if set(a.attributes) != set(b.attributes):
        return False
    for name in a.attributes:
        if not values_equal(a.attributes[name], b.attributes[name]):
            return False
    if a.kind == NULL:
        return True
    if a.kind == DOUBLE:
        return len(a.payload) == len(b.payload) and all(
            _double_eq(x, y) for x, y in zip(a.payload, b.payload)
        )
    if a.kind in (LOGICAL, INTEGER, STRING):
        return a.payload == b.payload
    if a.kind == LIST:
        return len(a.payload) == len(b.payload) and all(
            values_equal(x, y) for x, y in zip(a.payload, b.payload)
        )
    if a.kind == S4_INSTANCE:
        pa, pb = a.payload, b.payload
        return (
            pa.class_name == pb.class_name
            and set(pa.slot_values) == set(pb.slot_values)
            and all(values_equal(pa.slot_values[k], pb.slot_values[k]) for k in pa.slot_values)
        )
    # closures, builtins, environments, ref instances: identity
    return a.payload is b.payload


def element_names(v: Value) -> Optional[list]:
    names = v.attributes.get("names")
    if names is not None and names.kind == STRING:
        return names.payload
    return None
