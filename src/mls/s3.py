"""Informal functional OOP: methods are ordinary functions found by the
naming pattern `generic.class`, and dispatch walks the instance's class
vector.  Inheritance lives in the object, not in any registry, so
dispatch is instance-based; only a formal instance, which carries no
class vector, walks its class's linearization in the class registry.
An operator applies here too, by `apply_operator`."""

from __future__ import annotations

from . import ops, values
from .environment import entry_value
from .values import MlsError, Value


class UseMethodExit(Exception):
    """Raised by UseMethod to return the selected method's value as the
    value of the generic call."""

    def __init__(self, value):
        self.value = value


def lookup_method(interp, name: str, env) -> Value | None:
    """First function bound to `name` in the environment chain, if any."""
    return interp.find_function(name, env)


def find_method(interp, generic: str, classes, env):
    """The first function `generic.cls` bound from `env`, walking
    `classes` in order, with its name; (None, None) if there is none."""
    for cls in classes:
        fn = lookup_method(interp, f"{generic}.{cls}", env)
        if fn is not None:
            return fn, f"{generic}.{cls}"
    return None, None


def class_vector(interp, v: Value) -> list:
    """The classes dispatch walks: the implicit class vector, or for a
    formal instance without a class attribute its class's linearization."""
    if v.kind in values.FORMAL_KINDS and "class" not in v.attributes:
        return list(interp.s4.lineage(v.payload.class_name).distances)
    return values.implicit_class(v).payload


def use_method(interp, generic_name: str, loc=None):
    """Select and run a method for the current call, then return its value
    as the value of the enclosing generic.  The one site that passes a
    frame's promises on, it forces them for an eager builtin method."""
    if not interp.frames:
        raise MlsError("UseMethod called from outside a function", loc)
    frame = interp.frames[-1]
    closure = frame.closure_value.payload
    if not closure.formals:
        raise MlsError(
            f"UseMethod('{generic_name}') requires a function with at least one argument", loc
        )
    first = closure.formals[0][0]
    obj = entry_value(frame.frame[first], interp, loc)
    classes = class_vector(interp, obj)
    fn, label = find_method(interp, generic_name, classes + ["default"], frame.caller_env)
    if fn is not None:
        eager = fn.kind == values.BUILTIN and not fn.payload.lazy
        args = [(n, entry_value(a, interp)) for n, a in frame.args] if eager else frame.args
        result = interp.call_value(
            fn, args, loc=frame.call_loc, caller_env=frame.caller_env, label=label
        )
        raise UseMethodExit(result)
    raise MlsError(
        f"no applicable method for '{generic_name}' applied to an object of class "
        f"({', '.join(classes)})",
        loc,
    )


def _selects_operator_methods(v: Value) -> bool:
    """Only an operand with a class attribute, or a formal instance, does."""
    return "class" in v.attributes or v.kind in values.FORMAL_KINDS


def _operator_classes(interp, v: Value) -> list:
    return class_vector(interp, v) if _selects_operator_methods(v) else []


def dispatch_binary_op(interp, op: str, lhs: Value, rhs: Value, env, loc=None) -> Value | None:
    """S3 operator dispatch on either operand's class attribute or, for a
    formal instance without one, its class's linearization.

    Returns None when neither operand selects a method, in which case
    the caller falls through to the builtin operator.
    """
    left_fn, left_name = find_method(interp, op, _operator_classes(interp, lhs), env)
    right_fn, right_name = find_method(interp, op, _operator_classes(interp, rhs), env)
    if left_fn is not None and right_fn is not None and left_fn.payload is not right_fn.payload:
        interp.warn(f'incompatible methods ("{left_name}", "{right_name}") for "{op}"')
        right_fn = None
    chosen = left_fn if left_fn is not None else right_fn
    if chosen is None:
        return None
    args = [(None, lhs), (None, rhs)]
    return interp.call_value(chosen, args, loc=loc, caller_env=env, label=left_name or right_name)


def apply_operator(interp, op, lhs, rhs, env, loc=None) -> Value:
    """`lhs op rhs`: the S3 method an operand selects, else `ops.BINARY`'s operator."""
    if _selects_operator_methods(lhs) or _selects_operator_methods(rhs):
        dispatched = dispatch_binary_op(interp, op, lhs, rhs, env, loc)
        if dispatched is not None:
            return dispatched
    compute = ops.compare_binary if ops.BINARY[op][1] == values.LOGICAL else ops.arith_binary
    return compute(op, lhs, rhs, loc)
