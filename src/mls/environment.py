"""Environments: mutable name-to-entry frames with a parent chain.

A reference in MLS is a name plus an environment.  A frame entry is a
`Value` itself, a lazy `Promise` itself (memoized on first force), or a
`Binding` for the modes that need more: an active field that runs
accessor functions, or a missing argument.  A call's argument is an
entry too, a `Promise` or a `Value`.  `entry_value` reads any entry.
`Environment.bind` is the one frame write; the rules for writing a
reference-class field are `refclasses.write_field`'s.  A frame is a
plain `Environment` (base, global), an `interpreter.CallFrame` that is a
closure call's record, or a `refclasses.InstanceFrame` that is a
reference instance.
"""

from __future__ import annotations

from typing import Optional

from . import values
from .values import MlsError

PENDING, FORCING, DONE = 0, 1, 2


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

    def force(self, interp):
        if self.state == DONE:
            return self.value
        if self.state == FORCING:
            raise MlsError(
                "promise already under evaluation: recursive default or forcing cycle",
                self.expr.loc,
            )
        self.state = FORCING
        run = self.expr._run
        try:
            self.value = run(interp, self.env) if run is not None else interp.eval(self.expr, self.env)
        finally:
            if self.state == FORCING:
                self.state = PENDING
        self.state = DONE
        self.env = None
        return self.value


class Binding:
    """A frame entry in a special mode: an active field (`getter`, with its
    `setter`) or a missing argument (`missing_name`).  `builtins.install`
    also binds each of base's builtins as a `Binding(value=...)`, whose
    `.value` a tracer reads."""

    __slots__ = ("value", "getter", "setter", "missing_name")

    def __init__(self, *, value=None, getter=None, setter=None, missing_name=None):
        self.value = value
        self.getter = getter
        self.setter = setter
        self.missing_name = missing_name

    def resolve(self, interp, loc=None):
        if self.missing_name is not None:
            raise MlsError(
                f"argument '{self.missing_name}' is missing, with no default", loc
            )
        if self.getter is not None:
            return interp.call_value(self.getter, [], loc=loc)
        return self.value


def entry_value(entry, interp, loc=None) -> values.Value:
    """The value a frame entry stands for: a `Value` itself, a `Promise`'s
    value, or whatever `Binding.resolve` makes of a special mode."""
    if entry.__class__ is values.Value:
        return entry
    return entry.force(interp) if entry.__class__ is Promise else entry.resolve(interp, loc)


class Environment:
    __slots__ = ("frame", "parent", "tag")

    def __init__(self, parent: Optional["Environment"] = None, tag: str = ""):
        self.frame: dict = {}
        self.parent = parent
        self.tag = tag

    def __repr__(self):
        return f"<environment {self.tag or hex(id(self))}>"

    def bind(self, name: str, entry, interp):
        """The one write into a frame outside `builtins.install`; it marks a
        base name in `interp.shadowed` (see `Interpreter.find_function`)."""
        if name in interp.base_names:
            interp.shadowed.add(name)
        self.frame[name] = entry

    def env_value(self) -> values.Value:
        return values.Value(values.ENVIRONMENT, self)
