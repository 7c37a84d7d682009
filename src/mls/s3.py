"""Informal functional OOP: methods are ordinary functions found by the
naming pattern `generic.class`, and dispatch walks the instance's class
vector.  Inheritance lives in the object, not in any registry, so
dispatch is instance-based; only a formal instance, which carries no
class vector, walks its class's linearization in the class registry."""

from __future__ import annotations

from . import values
from .environment import Promise, entry_value
from .values import MlsError, Value


class UseMethodExit(Exception):
    """Raised by UseMethod to return the selected method's value as the
    value of the generic call."""

    def __init__(self, value):
        self.value = value


def lookup_method(interp, name: str, env) -> Value | None:
    """First function bound to `name` in the environment chain, if any."""
    return interp.find_function(name, env)


def class_vector(interp, v: Value) -> list:
    """The classes dispatch walks: the implicit class vector, or for a
    formal instance without a class attribute its class's linearization."""
    if v.kind in values.FORMAL_KINDS and "class" not in v.attributes:
        return list(interp.s4.lineage(v.payload.class_name).distances)
    return values.implicit_class(v).payload


def use_method(interp, generic_name: str, loc=None):
    """Select and run a method for the current call, then return its value
    as the value of the enclosing generic."""
    if not interp.frames:
        raise MlsError("UseMethod called from outside a function", loc)
    frame = interp.frames[-1]
    closure = frame.closure_value.payload
    if not closure.formals:
        raise MlsError(
            f"UseMethod('{generic_name}') requires a function with at least one argument", loc
        )
    first = closure.formals[0][0]
    obj = entry_value(frame.call_env.frame[first], interp, loc)
    classes = class_vector(interp, obj)
    for cls in classes + ["default"]:
        fn = lookup_method(interp, f"{generic_name}.{cls}", frame.caller_env)
        if fn is not None:
            result = interp.call_value(
                fn,
                frame.args,
                loc=frame.call_loc,
                caller_env=frame.caller_env,
                label=f"{generic_name}.{cls}",
            )
            raise UseMethodExit(result)
    raise MlsError(
        f"no applicable method for '{generic_name}' applied to an object of class "
        f"({', '.join(classes)})",
        loc,
    )


def _operator_classes(interp, v: Value) -> list:
    """The classes operator dispatch walks: those of an operand with a
    class attribute or of a formal instance; none for any other value,
    whose implicit class selects no operator method."""
    if "class" in v.attributes or v.kind in values.FORMAL_KINDS:
        return class_vector(interp, v)
    return []


def _find_operator_method(interp, op: str, v: Value, env):
    for cls in _operator_classes(interp, v):
        fn = lookup_method(interp, f"{op}.{cls}", env)
        if fn is not None:
            return fn, f"{op}.{cls}"
    return None, None


def dispatch_binary_op(interp, op: str, lhs: Value, rhs: Value, env, loc=None) -> Value | None:
    """S3 operator dispatch on either operand's class attribute or, for a
    formal instance without one, its class's linearization.

    Returns None when neither operand selects a method, in which case
    the caller falls through to the builtin operator.
    """
    left_fn, left_name = _find_operator_method(interp, op, lhs, env)
    right_fn, right_name = _find_operator_method(interp, op, rhs, env)
    if left_fn is not None and right_fn is not None and left_fn.payload is not right_fn.payload:
        interp.warn(f'incompatible methods ("{left_name}", "{right_name}") for "{op}"')
        right_fn = None
    chosen = left_fn if left_fn is not None else right_fn
    if chosen is None:
        return None
    args = [(None, Promise.forced(lhs)), (None, Promise.forced(rhs))]
    return interp.call_value(chosen, args, loc=loc, caller_env=env, label=left_name or right_name)
