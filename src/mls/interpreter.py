"""The MLS evaluator.

Function calls bind arguments as lazy promises and evaluate bodies in a
fresh environment chained to the closure's enclosure.  Locality is
preserved because nothing ever mutates a value in place: modification
forms build a new value and rebind the local name.  The only aliasing
values are environments and reference-class instances.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Optional

from . import ops, reader, rng, syntax, values
from .environment import Binding, Environment, Promise
from .values import MlsError, Value

RANDOM_SEED_NAME = ".Random.seed"
OPTIONS_NAME = ".Options"
DEFAULT_SEED = 0

# Interpreter recursion rides the host stack: one MLS call costs up to 24
# host frames, and the reader about 15 per level of nesting.  The CLI and
# every Interpreter raise the host limit to this one budget.
MAX_CALL_DEPTH = 1000
HOST_RECURSION_LIMIT = 24 * MAX_CALL_DEPTH


@dataclass
class BuiltinPayload:
    name: str
    fn: Any
    formals: Optional[list] = None  # list of (name, default Value or REQUIRED); None = variadic
    lazy: bool = False
    invisible: bool = False
    special: Optional[str] = None  # "generic" | "ref_generator"
    meta: Any = None


REQUIRED = object()


@dataclass
class BuiltinContext:
    interp: "Interpreter"
    env: Environment
    loc: Any


@dataclass
class CallFrame:
    closure_value: Value
    call_env: Environment
    caller_env: Environment
    call_loc: Any
    args: list  # original (name or None, Promise) in call order
    label: Optional[str] = None


def match_formals(formals, args, loc=None):
    """Match (name or None, actual) pairs to (name, default) formals:
    exact names first, then the still-unmatched formals in order by
    position.  Returns the dict of matched formals and the list of
    positional actuals left over; the caller decides what an unmatched
    formal or a leftover actual means."""
    matched = {}
    positional = []
    for name, actual in args:
        if not name:
            positional.append(actual)
        elif name in matched:
            raise MlsError(f"formal argument '{name}' matched by multiple arguments", loc)
        elif any(name == formal for formal, _ in formals):
            matched[name] = actual
        else:
            raise MlsError(f"unused argument '{name}'", loc)
    for formal, _ in formals:
        if not positional:
            break
        if formal not in matched:
            matched[formal] = positional.pop(0)
    return matched, positional


class UseMethodExit(Exception):
    """Raised by UseMethod to return the selected method's value as the
    value of the generic call."""

    def __init__(self, frame, value):
        self.frame = frame
        self.value = value


class Interpreter:
    def __init__(self, stdout=None, stderr=None, max_call_depth=MAX_CALL_DEPTH):
        """`max_call_depth` caps MLS call nesting; the host limit fits the
        default, so a larger cap may end in a host RecursionError."""
        from . import builtins as builtin_defs
        from . import s4

        sys.setrecursionlimit(max(sys.getrecursionlimit(), HOST_RECURSION_LIMIT))
        self.max_call_depth = max_call_depth
        self.stdout = stdout
        self.stderr = stderr
        self.base_env = Environment(None, "base")
        self.global_env = Environment(self.base_env, "global")
        self.frames: list = []
        self.visible = True
        self.s4 = s4.Registry()
        self.ref_classes: dict = {}
        self.foreign_stubs: dict = {}
        self.register_foreign("identity", lambda interp, args: args[0] if args else values.null_value())
        builtin_defs.install(self)
        self._load_prelude()

    # -- output ------------------------------------------------------------

    def write(self, text: str):
        out = self.stdout if self.stdout is not None else sys.stdout
        out.write(text)

    def warn(self, message: str):
        err = self.stderr if self.stderr is not None else sys.stderr
        err.write(f"warning: {message}\n")

    # -- setup ---------------------------------------------------------------

    def _load_prelude(self):
        src = 'print <- function(x) UseMethod("print")'
        for e in reader.parse_program(src):
            self.eval(e, self.base_env)

    def register_foreign(self, tag: str, fn):
        self.foreign_stubs[tag] = fn

    # -- evaluation ----------------------------------------------------------

    def eval_program(self, exprs, env=None):
        env = env or self.global_env
        result = values.null_value()
        for e in exprs:
            result = self.eval(e, env)
        return result

    def eval_source(self, source: str, env=None):
        return self.eval_program(reader.parse_program(source), env)

    def eval(self, e: syntax.Expr, env: Environment) -> Value:
        if isinstance(e, syntax.Constant):
            self.visible = True
            return e.value
        if isinstance(e, syntax.Symbol):
            self.visible = True
            return env.get_value(e.name, self, e.loc)
        if isinstance(e, syntax.Call):
            return self.eval_call(e, env)
        if isinstance(e, syntax.Assign):
            v = self.eval(e.value, env)
            self.assign_local(e.target.name, v, env, e.loc)
            self.visible = False
            return v
        if isinstance(e, syntax.SuperAssign):
            v = self.eval(e.value, env)
            self.assign_super(e.target.name, v, env, e.loc)
            self.visible = False
            return v
        if isinstance(e, syntax.Block):
            result = values.null_value()
            self.visible = True
            for stmt in e.body:
                result = self.eval(stmt, env)
            return result
        if isinstance(e, syntax.If):
            if ops.truthy(self.eval(e.cond, env), e.cond.loc):
                return self.eval(e.then, env)
            if e.orelse is not None:
                return self.eval(e.orelse, env)
            self.visible = False
            return values.null_value()
        if isinstance(e, syntax.While):
            while ops.truthy(self.eval(e.cond, env), e.cond.loc):
                self.eval(e.body, env)
            self.visible = False
            return values.null_value()
        if isinstance(e, syntax.FunctionLiteral):
            self.visible = True
            return Value(values.CLOSURE, values.Closure(e.formals, e.body, env))
        if isinstance(e, syntax.Index):
            obj = self.eval(e.obj, env)
            indices = [self.eval(i, env) for i in e.indices]
            self.visible = True
            return ops.index_get(obj, indices, e.loc)
        if isinstance(e, syntax.IndexAssign):
            return self._eval_index_assign(e, env)
        if isinstance(e, syntax.FieldAccess):
            obj = self.eval(e.obj, env)
            self.visible = True
            return self.field_get(obj, e.name, e.loc)
        if isinstance(e, syntax.FieldAssign):
            return self._eval_field_assign(e, env)
        raise MlsError(f"cannot evaluate node {type(e).__name__}", e.loc)

    # -- calls ---------------------------------------------------------------

    def eval_call(self, e: syntax.Call, env: Environment) -> Value:
        if isinstance(e.callee, syntax.Symbol):
            fn = self.lookup_function(e.callee.name, env, e.loc)
            label = e.callee.name
        else:
            fn = self.eval(e.callee, env)
            label = None
        args = [(name, Promise(arg, env)) for name, arg in e.args]
        try:
            return self.call_value(fn, args, loc=e.loc, caller_env=env, label=label)
        except MlsError as err:
            if err.loc is None:
                err.loc = e.loc
            raise

    def lookup_function(self, name: str, env: Environment, loc=None) -> Value:
        cur = env
        while cur is not None:
            b = cur.frame.get(name)
            if b is not None:
                v = b.resolve(self, loc)
                if values.is_function(v):
                    return v
            cur = cur.parent
        raise MlsError(f"could not find function '{name}'", loc)

    def call_value(self, fn: Value, args, loc=None, caller_env=None, label=None) -> Value:
        """Apply a function value to (name, Promise) argument pairs."""
        caller_env = caller_env if caller_env is not None else self.global_env
        if fn.kind == values.BUILTIN:
            return self._call_builtin(fn.payload, args, caller_env, loc)
        if fn.kind == values.CLOSURE:
            call_env = self.match_arguments(fn.payload, args, loc, label)
            return self.exec_closure(fn, call_env, caller_env, loc, args, label)
        raise MlsError("attempt to apply non-function", loc)

    def _call_builtin(self, payload: BuiltinPayload, args, caller_env, loc) -> Value:
        if payload.special is not None:
            from . import refclasses, s4

            if payload.special == "generic":
                result = s4.call_generic(self, payload.meta, args, caller_env, loc)
            else:
                forced = [(n, p.force(self)) for n, p in args]
                result = refclasses.generator_new(self, payload.meta, forced, loc)
            self.visible = not payload.invisible
            return result
        ctx = BuiltinContext(self, caller_env, loc)
        if payload.lazy:
            result = payload.fn(ctx, args)
        elif payload.formals is None:
            forced = [(n, p.force(self)) for n, p in args]
            result = payload.fn(ctx, forced)
        else:
            forced = [(n, p.force(self)) for n, p in args]
            matched, extra = match_formals(payload.formals, forced, loc)
            if extra:
                raise MlsError(f"unused arguments for '{payload.name}'", loc)
            for name, default in payload.formals:
                if name not in matched:
                    if default is REQUIRED:
                        raise MlsError(f"argument '{name}' is missing, with no default", loc)
                    matched[name] = default
            result = payload.fn(ctx, **matched)
        self.visible = not payload.invisible
        return result

    def match_arguments(self, closure: values.Closure, args, loc=None, label=None) -> Environment:
        """Build the call environment: each formal becomes a lazy promise
        over the actual expression (in the caller) or the default (in the
        new environment itself); unmatched formals without defaults bind a
        missing marker that errors when forced."""
        call_env = Environment(closure.enclosure, f"call:{label or 'function'}")
        matched, extra = match_formals(closure.formals, args, loc)
        if extra:
            detail = syntax.deparse(extra[0].expr) if extra[0].expr is not None else "value"
            raise MlsError(f"unused argument ({detail})", loc)
        for name, default in closure.formals:
            if name in matched:
                call_env.frame[name] = Binding.lazy(matched[name])
            elif default is not None:
                call_env.frame[name] = Binding.lazy(Promise(default, call_env))
            else:
                call_env.frame[name] = Binding.missing(name)
        return call_env

    def exec_closure(self, fn: Value, call_env, caller_env, loc, args, label=None) -> Value:
        if len(self.frames) >= self.max_call_depth:
            raise MlsError(
                "evaluation nested too deeply (possible infinite recursion)", loc
            )
        frame = CallFrame(fn, call_env, caller_env, loc, args, label)
        self.frames.append(frame)
        try:
            return self.eval(fn.payload.body, call_env)
        except UseMethodExit as exit_:
            if exit_.frame is frame:
                return exit_.value
            raise
        finally:
            self.frames.pop()

    # -- assignment ----------------------------------------------------------

    def assign_local(self, name: str, v: Value, env: Environment, loc=None):
        env.set_value(name, v, self, loc)

    def assign_super(self, name: str, v: Value, env: Environment, loc=None):
        cur = env.parent
        while cur is not None:
            if name in cur.frame:
                cur.set_value(name, v, self, loc)
                return
            cur = cur.parent
        self.global_env.set_value(name, v, self, loc)

    def _eval_index_assign(self, e: syntax.IndexAssign, env: Environment) -> Value:
        current = env.get_value(e.obj.name, self, e.loc)
        indices = [self.eval(i, env) for i in e.indices]
        v = self.eval(e.value, env)
        updated = ops.index_assign(current, indices, v, e.loc)
        self.assign_local(e.obj.name, updated, env, e.loc)
        self.visible = False
        return v

    def _eval_field_assign(self, e: syntax.FieldAssign, env: Environment) -> Value:
        from . import refclasses

        v = self.eval(e.value, env)
        if isinstance(e.obj, syntax.Symbol):
            current = env.get_value(e.obj.name, self, e.loc)
            if current.kind == values.REF_INSTANCE:
                refclasses.field_set(self, current, e.name, v, e.loc)
            elif current.kind == values.ENVIRONMENT:
                current.payload.set_value(e.name, v, self, e.loc)
            elif current.kind in (values.LIST, values.NULL):
                updated = ops.field_assign_list(current, e.name, v, e.loc)
                self.assign_local(e.obj.name, updated, env, e.loc)
            else:
                cls = values.implicit_class(current).payload[0]
                raise MlsError(f"cannot set a field on an object of class '{cls}'", e.loc)
        else:
            target = self.eval(e.obj, env)
            if target.kind == values.REF_INSTANCE:
                refclasses.field_set(self, target, e.name, v, e.loc)
            elif target.kind == values.ENVIRONMENT:
                target.payload.set_value(e.name, v, self, e.loc)
            else:
                raise MlsError("cannot assign to a field of a temporary value", e.loc)
        self.visible = False
        return v

    # -- field access ----------------------------------------------------------

    def field_get(self, obj: Value, name: str, loc=None) -> Value:
        from . import refclasses

        if obj.kind == values.LIST:
            return ops.field_get_list(obj, name)
        if obj.kind == values.REF_INSTANCE:
            return refclasses.field_or_method(self, obj, name, loc)
        if obj.kind == values.ENVIRONMENT:
            b = obj.payload.frame.get(name)
            return b.resolve(self, loc) if b is not None else values.null_value()
        if obj.kind == values.BUILTIN and obj.payload.special == "ref_generator":
            return refclasses.generator_field(self, obj.payload.meta, name, loc)
        if obj.kind == values.S4_INSTANCE:
            raise MlsError(
                f"'$' is not valid for an object of class \"{obj.payload.class_name}\"; use slot()",
                loc,
            )
        cls = values.implicit_class(obj).payload[0]
        raise MlsError(f"'$' is not valid for an object of class '{cls}'", loc)

    # -- field/slot typing -----------------------------------------------------

    def check_field_class(self, v: Value, declared: str, name: str, loc=None):
        from . import s4

        if not s4.value_matches_class(self.s4, v, declared):
            actual = s4.dispatch_class_of(v)
            raise MlsError(
                f"invalid value for field '{name}': expected '{declared}', got '{actual}'",
                loc,
            )

    # -- interpreter state: RNG and options -------------------------------------

    def rng_state(self) -> int:
        b = self.global_env.frame.get(RANDOM_SEED_NAME)
        if b is None:
            state = rng.seed_state(DEFAULT_SEED)
            self.set_rng_state(state)
            return state
        v = b.value
        if (
            v is None
            or v.kind != values.INTEGER
            or len(v.payload) != 1
            or not (0 < v.payload[0] <= rng.MASK64)
        ):
            raise MlsError(f"invalid {RANDOM_SEED_NAME} value")
        return v.payload[0]

    def set_rng_state(self, state: int):
        self.global_env.frame[RANDOM_SEED_NAME] = Binding.immediate(values.int_vec([state]))

    def rng_set_seed(self, seed: int):
        self.set_rng_state(rng.seed_state(seed))

    def rng_draw(self, n: int) -> Value:
        if n < 0:
            raise MlsError("invalid count for rng_draw")
        state = self.rng_state()
        out = []
        for _ in range(n):
            state, u = rng.draw(state)
            out.append(u)
        self.set_rng_state(state)
        return values.double_vec(out)

    def options_value(self) -> Value:
        b = self.global_env.frame.get(OPTIONS_NAME)
        if b is None:
            v = values.list_value([])
            self.global_env.frame[OPTIONS_NAME] = Binding.immediate(v)
            return v
        return b.value

    def set_option(self, name: str, value: Value):
        table = ops.field_assign_list(self.options_value(), name, value)
        self.global_env.frame[OPTIONS_NAME] = Binding.immediate(table)

    def get_option(self, name: str) -> Value:
        return ops.field_get_list(self.options_value(), name)

    # -- top level ---------------------------------------------------------------

    def print_value(self, v: Value, env: Environment = None):
        """Print a value through the S3 print generic so class methods apply."""
        env = env or self.global_env
        fn = self.lookup_function("print", env)
        self.call_value(fn, [(None, Promise.forced(v))], caller_env=env, label="print")

    def run_top_level(self, exprs, env: Environment = None):
        env = env or self.global_env
        for e in exprs:
            v = self.eval(e, env)
            if self.visible:
                self.print_value(v, env)
