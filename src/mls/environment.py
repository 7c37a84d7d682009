"""Environments: mutable name-to-binding frames with a parent chain.

A reference in MLS is a name plus an environment.  Bindings come in
three modes: immediate values, lazy promises (memoized on first force),
and active bindings that run accessor functions.  Reference-class
fields carry their `RefField`, checked on every assignment.
"""

from __future__ import annotations

from typing import Optional

from . import values
from .values import MlsError

PENDING, FORCING, DONE = 0, 1, 2

# The binary operators a call site may apply directly (`interpreter._compile_call`)
COMPARISON_OPERATORS = ("<", "<=", ">", ">=", "==", "!=")
BINARY_OPERATORS = ("+", "-", "*", "/") + COMPARISON_OPERATORS


class Promise:
    """An unevaluated expression paired with its origin environment.
    Forcing runs the expression's compiled closure (`syntax.Expr._run`),
    compiling it through `Interpreter.eval` on its first evaluation."""

    __slots__ = ("expr", "env", "value", "state")

    def __init__(self, expr, env):
        self.expr = expr
        self.env = env
        self.value = None
        self.state = PENDING

    @classmethod
    def forced(cls, value):
        p = cls(None, None)
        p.value = value
        p.state = DONE
        return p

    def force(self, interp):
        if self.state == DONE:
            return self.value
        if self.state == FORCING:
            raise MlsError(
                "promise already under evaluation: recursive default or forcing cycle",
                getattr(self.expr, "loc", None),
            )
        self.state = FORCING
        expr = self.expr
        run = expr._run
        try:
            self.value = run(interp, self.env) if run is not None else interp.eval(expr, self.env)
        finally:
            if self.state == FORCING:
                self.state = PENDING
        self.state = DONE
        self.env = None
        return self.value


class Binding:
    __slots__ = ("value", "promise", "getter", "setter", "field", "missing_name")

    def __init__(self, *, value=None, promise=None, getter=None, setter=None, field=None,
                 missing_name=None):
        self.value = value
        self.promise = promise
        self.getter = getter
        self.setter = setter
        self.field = field
        self.missing_name = missing_name

    def resolve(self, interp, loc=None):
        if self.missing_name is not None:
            raise MlsError(
                f"argument '{self.missing_name}' is missing, with no default", loc
            )
        if self.getter is not None:
            return interp.call_value(self.getter, [], loc=loc)
        if self.promise is not None:
            return self.promise.force(interp)
        return self.value


class Environment:
    __slots__ = ("frame", "parent", "tag")

    def __init__(self, parent: Optional["Environment"] = None, tag: str = ""):
        self.frame: dict = {}
        self.parent = parent
        self.tag = tag

    def __repr__(self):
        return f"<environment {self.tag or hex(id(self))}>"

    def lookup_binding(self, name: str) -> Optional[Binding]:
        env = self
        while env is not None:
            b = env.frame.get(name)
            if b is not None:
                return b
            env = env.parent
        return None

    def has(self, name: str) -> bool:
        return self.lookup_binding(name) is not None

    def bind(self, name: str, binding: Binding, interp):
        """The one write into a frame outside `builtins.install`; it marks a
        base name in `interp.shadowed` (see `Interpreter.find_function`)."""
        if name in interp.base_names:
            interp.shadowed.add(name)
        self.frame[name] = binding

    def set_value(self, name: str, value: values.Value, interp, loc=None):
        """Assign into this frame, honoring active bindings and typed fields."""
        b = self.frame.get(name)
        if b is None:
            self.bind(name, Binding(value=value), interp)
            return
        if b.getter is not None:
            if b.setter is None:
                raise MlsError(f"active field '{name}' has no setter", loc)
            interp.call_value(b.setter, [(None, Promise.forced(value))], loc=loc)
            return
        if b.field is not None:
            if b.field.read_only:
                raise MlsError(f"field '{name}' is read-only", loc)
            interp.s4.check_value(value, b.field.declared_class, f"field '{name}'", loc)
            b.value = value
            b.promise = None
            b.missing_name = None
            return
        self.bind(name, Binding(value=value), interp)

    def env_value(self) -> values.Value:
        return values.Value(values.ENVIRONMENT, self)
