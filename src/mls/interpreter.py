"""The MLS evaluator.

Each expression node compiles once, on first evaluation, into a Python
closure.  Calls to closures bind their arguments as lazy promises and
evaluate bodies in a fresh environment chained to the closure's
enclosure.  A builtin is either lazy or eager.  Lazy builtins (`&&`,
`||` and S4 generics) receive promises; every other builtin, the
reference-class generators among them, receives its argument values,
evaluated in call order in the caller's environment.

Locality is preserved because nothing ever mutates a value in place:
modification forms build a new value and rebind the local name.  The
only aliasing values are environments and reference-class instances.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Any, Optional

from . import ops, reader, refclasses, rng, s3, s4, syntax, values
from .environment import (BINARY_OPERATORS, COMPARISON_OPERATORS, DONE, Binding, Environment,
                          Promise, entry_value)
from .reader import HOST_RECURSION_LIMIT, deep_host_stack
from .values import MlsError, Value

RANDOM_SEED_NAME = ".Random.seed"
OPTIONS_NAME = ".Options"
DEFAULT_SEED = 0

MAX_CALL_DEPTH = HOST_RECURSION_LIMIT // 24  # one MLS call takes up to 24 host frames

_NUMBER_KINDS = (values.INTEGER, values.DOUBLE)


@functools.cache
def _prelude() -> list:
    """Parsed by the first interpreter and shared: compiled trees capture
    no interpreter."""
    return reader.parse_program('print <- function(x) UseMethod("print")')


@dataclass
class BuiltinPayload:
    name: str
    fn: Any
    formals: Optional[list] = None  # list of (name, default Value or REQUIRED); None = variadic
    lazy: bool = False
    invisible: bool = False
    meta: Any = None  # s4.GenericDef of a generic, refclasses.RefClassDef of a generator


REQUIRED = object()


class BuiltinContext:
    __slots__ = ("interp", "env", "loc")

    def __init__(self, interp: "Interpreter", env: Environment, loc):
        self.interp = interp
        self.env = env
        self.loc = loc


class CallFrame:
    __slots__ = ("closure_value", "call_env", "caller_env", "call_loc", "args")

    def __init__(self, closure_value: Value, call_env: Environment, caller_env: Environment,
                 call_loc, args: list):
        self.closure_value = closure_value
        self.call_env = call_env
        self.caller_env = caller_env
        self.call_loc = call_loc
        self.args = args  # original (name or None, Promise) in call order


def apply_operator(interp, op, lhs, rhs, env, loc=None) -> Value:
    """`lhs op rhs` for a binary operator: the S3 method either operand's
    class selects, else the base arithmetic or comparison of `ops`.  Only
    an operand with a class attribute, or a formal instance, selects."""
    if ("class" in lhs.attributes or "class" in rhs.attributes
            or lhs.kind in values.FORMAL_KINDS or rhs.kind in values.FORMAL_KINDS):
        dispatched = s3.dispatch_binary_op(interp, op, lhs, rhs, env, loc)
        if dispatched is not None:
            return dispatched
    compute = ops.compare_binary if op in COMPARISON_OPERATORS else ops.arith_binary
    return compute(op, lhs, rhs, loc)


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


class Interpreter:
    def __init__(self, stdout=None, stderr=None):
        from . import builtins as builtin_defs

        self.stdout = stdout
        self.stderr = stderr
        self.base_env = Environment(None, "base")
        self.global_env = Environment(self.base_env, "global")
        self.frames: list = []
        self.visible = True
        self.base_names = builtin_defs.BUILTIN_NAMES
        self.shadowed: set = set()  # the base names some frame has bound
        self.s4 = s4.Registry()
        self.foreign_stubs: dict = {}
        self.register_foreign("identity", lambda interp, args: args[0] if args else values.null_value())
        builtin_defs.install(self)
        for e in _prelude():
            self.eval(e, self.base_env)

    # -- output ------------------------------------------------------------

    def write(self, text: str):
        out = self.stdout if self.stdout is not None else sys.stdout
        out.write(text)

    def warn(self, message: str):
        err = self.stderr if self.stderr is not None else sys.stderr
        err.write(f"warning: {message}\n")

    # -- setup ---------------------------------------------------------------

    def register_foreign(self, tag: str, fn):
        self.foreign_stubs[tag] = fn

    # -- evaluation ----------------------------------------------------------

    def eval_program(self, exprs, env=None):
        """Evaluate each expression in turn and return the last value."""
        return self._run_each(exprs, env, echo=False)

    def eval_source(self, source: str, env=None):
        return self.eval_program(reader.parse_program(source), env)

    def eval(self, e: syntax.Expr, env: Environment) -> Value:
        """Evaluate `e` in `env` through its compiled closure."""
        return compile_expr(e)(self, env)

    # -- calls ---------------------------------------------------------------

    def find_function(self, name: str, env: Environment, loc=None) -> Optional[Value]:
        """The first function bound to `name` from `env` outward, or None.
        A base name that no frame has bound since `builtins.install` (so
        `Environment.bind` has not marked it) is base's builtin."""
        if name in self.base_names and name not in self.shadowed:
            return self.base_env.frame[name].value
        cur = env
        while cur is not None:
            b = cur.frame.get(name)
            if b is not None:
                cls = b.__class__
                v = b if cls is Value else b.force(self) if cls is Promise else b.resolve(self, loc)
                if v.kind in (values.CLOSURE, values.BUILTIN):
                    return v
            cur = cur.parent
        return None

    def lookup_function(self, name: str, env: Environment, loc=None) -> Value:
        fn = self.find_function(name, env, loc)
        if fn is None:
            raise MlsError(f"could not find function '{name}'", loc)
        return fn

    def call_value(self, fn: Value, args, loc=None, caller_env=None, label=None,
                   forced=False) -> Value:
        """Apply a function value to (name, Promise) argument pairs or, when
        `forced`, an eager builtin to (name, Value) pairs evaluated in call
        order.  A lazy builtin takes the promises as they are; every other
        builtin takes their values, matched to its formals unless it is
        variadic."""
        caller_env = caller_env if caller_env is not None else self.global_env
        if fn.kind == values.BUILTIN:
            payload = fn.payload
            if not (forced or payload.lazy):
                args = [(n, p.force(self)) for n, p in args]
            ctx = BuiltinContext(self, caller_env, loc)
            formals = payload.formals
            if formals is None:
                result = payload.fn(ctx, args)
            else:
                matched, extra = match_formals(formals, args, loc)
                if extra:
                    raise MlsError(f"unused arguments for '{payload.name}'", loc)
                for name, default in formals:
                    if name not in matched:
                        if default is REQUIRED:
                            raise MlsError(f"argument '{name}' is missing, with no default", loc)
                        matched[name] = default
                result = payload.fn(ctx, **matched)
            self.visible = not payload.invisible
            return result
        if fn.kind == values.CLOSURE:
            call_env = self.match_arguments(fn.payload, args, loc, label)
            return self.exec_closure(fn, call_env, caller_env, loc, args)
        raise MlsError("attempt to apply non-function", loc)

    def match_arguments(self, closure: values.Closure, args, loc=None, label=None) -> Environment:
        """Build the call environment: each formal is bound to the caller's
        promise or to a promise of its default in the new environment
        itself; unmatched formals without defaults bind a missing marker
        that errors when read."""
        call_env = Environment(closure.enclosure, f"call:{label or 'function'}")
        matched, extra = match_formals(closure.formals, args, loc)
        if extra:
            detail = syntax.deparse(extra[0].expr) if extra[0].expr is not None else "value"
            raise MlsError(f"unused argument ({detail})", loc)
        for name, default in closure.formals:
            if name in matched:
                call_env.bind(name, matched[name], self)
            elif default is not None:
                call_env.bind(name, Promise(default, call_env), self)
            else:
                call_env.bind(name, Binding(missing_name=name), self)
        return call_env

    def exec_closure(self, fn: Value, call_env, caller_env, loc, args) -> Value:
        if len(self.frames) >= MAX_CALL_DEPTH:
            raise MlsError(
                "evaluation nested too deeply (possible infinite recursion)", loc
            )
        self.frames.append(CallFrame(fn, call_env, caller_env, loc, args))
        body = fn.payload.body
        try:
            return (body._run or compile_expr(body))(self, call_env)
        except s3.UseMethodExit as exit_:  # raised for this call, the innermost one
            return exit_.value
        finally:
            self.frames.pop()

    # -- assignment ----------------------------------------------------------

    def assign_super(self, name: str, v: Value, env: Environment, loc=None):
        cur = env.parent
        while cur is not None:
            b = cur.frame.get(name)
            if b is not None:
                if isinstance(cur, refclasses.InstanceFrame):
                    refclasses.write_field(self, cur, name, v, loc)
                else:
                    cur.bind(name, v, self)
                return
            cur = cur.parent
        self.global_env.bind(name, v, self)

    # -- field access ----------------------------------------------------------

    def field_get(self, obj: Value, name: str, loc=None) -> Value:
        if obj.kind == values.LIST:
            return ops.field_get_list(obj, name)
        if obj.kind == values.REF_INSTANCE:
            return refclasses.field_or_method(self, obj, name, loc)
        if obj.kind == values.ENVIRONMENT:
            b = obj.payload.frame.get(name)
            return entry_value(b, self, loc) if b is not None else values.null_value()
        if obj.kind == values.BUILTIN and isinstance(obj.payload.meta, refclasses.RefClassDef):
            return refclasses.generator_field(self, obj.payload, name, loc)
        if obj.kind == values.S4_INSTANCE:
            raise MlsError(
                f"'$' is not valid for an object of class \"{obj.payload.class_name}\"; use slot()",
                loc,
            )
        cls = values.implicit_class(obj).payload[0]
        raise MlsError(f"'$' is not valid for an object of class '{cls}'", loc)

    # -- interpreter state: RNG and options -------------------------------------

    # `.Random.seed` holds the 64-bit state as its signed (two's complement)
    # reading; only the state 2^63, read as -2^63, is past the integer bound.

    def rng_state(self) -> int:
        v = self.global_env.frame.get(RANDOM_SEED_NAME)
        if v is None:
            state = rng.seed_state(DEFAULT_SEED)
            self.set_rng_state(state)
            return state
        if (
            v.kind != values.INTEGER
            or len(v.payload) != 1
            or v.payload[0] == 0
            or not (-(1 << 63) <= v.payload[0] < (1 << 63))
        ):
            raise MlsError(f"invalid {RANDOM_SEED_NAME} value")
        return v.payload[0] & rng.MASK64

    def set_rng_state(self, state: int):
        signed = state - (1 << 64) if state >> 63 else state
        self.global_env.bind(RANDOM_SEED_NAME, values.int_vec([signed]), self)

    def rng_set_seed(self, seed: int):
        self.set_rng_state(rng.seed_state(seed))

    def rng_draw(self, n: int) -> Value:
        state = self.rng_state()
        out = []
        for _ in range(n):
            state, u = rng.draw(state)
            out.append(u)
        self.set_rng_state(state)
        return values.double_vec(out)

    def options_value(self) -> Value:
        v = self.global_env.frame.get(OPTIONS_NAME)
        if v is None:
            v = values.list_value([])
            self.global_env.bind(OPTIONS_NAME, v, self)
        return v

    def set_option(self, name: str, value: Value):
        table = ops.field_assign_list(self.options_value(), name, value)
        self.global_env.bind(OPTIONS_NAME, table, self)

    def get_option(self, name: str) -> Value:
        return ops.field_get_list(self.options_value(), name)

    # -- top level ---------------------------------------------------------------

    def print_value(self, v: Value, env: Environment = None):
        """Print a value through the S3 print generic so class methods apply."""
        env = env or self.global_env
        fn = self.lookup_function("print", env)
        self.call_value(fn, [(None, Promise.forced(v))], caller_env=env, label="print")

    def run_top_level(self, exprs, env: Environment = None):
        """Evaluate each expression in turn and print its value if visible."""
        self._run_each(exprs, env, echo=True)

    def _run_each(self, exprs, env, echo):
        """The one loop over top-level expressions, run on the deep host
        stack.  Source nested deeper than that allows is an error at the
        top-level expression that holds it."""
        env = env or self.global_env
        result = values.null_value()
        with deep_host_stack():
            for e in exprs:
                try:
                    result = self.eval(e, env)
                    if echo and self.visible:
                        self.print_value(result, env)
                except RecursionError:
                    raise MlsError("evaluation nested too deeply", e.loc) from None
        return result


# -- compiled evaluator ------------------------------------------------------------
#
# Each node compiles once, on its first evaluation, into a closure
# `run(interp, env) -> Value` cached on the node (Feeley & Lapalme, "Using
# closures for code generation", 1987).  A closure captures its children's
# closures and constants from the tree, never an interpreter or an
# environment, so one parsed program runs in any number of interpreters.
# Function bodies compile on their first call, in `exec_closure`.
# Functions of other modules (`ops.*`, `interp.*`) are looked up at each
# call, not bound at compile time, so wrappers installed on them (as a
# tracer does) still see every call.  Two common cases make no such call.
# An operator site computes two attribute-free numeric scalars in place
# from the per-element functions of `ops`, so a tracer counts that
# arithmetic as interpreter self time; a symbol reads a frame entry that
# is a value or a promise, forcing it if pending, without calling
# `Binding.resolve`.


def compile_expr(e: syntax.Expr):
    """The closure that evaluates `e`, compiled and cached on first use."""
    run = e._run
    if run is None:
        run = e._run = _COMPILERS[type(e)](e)
    return run


def _compile_constant(e: syntax.Constant):
    value = e.value

    def run(interp, env):
        interp.visible = True
        return value

    return run


def _compile_symbol(e: syntax.Symbol):
    """Walk the frames from `env` outward to the first entry for the
    name and test its class once: a `Value` is the value, a `Promise`
    gives its value (forced here if pending), and a `Binding` gives
    whatever `Binding.resolve` makes of a missing formal or an active
    field."""
    name, loc = e.name, e.loc

    def run(interp, env):
        interp.visible = True
        while env is not None:
            b = env.frame.get(name)
            if b is not None:
                cls = b.__class__
                if cls is Value:
                    return b
                if cls is Promise:
                    return b.value if b.state == DONE else b.force(interp)
                return b.resolve(interp, loc)
            env = env.parent
        raise MlsError(f"object '{name}' not found", loc)

    return run


def _compile_call(e: syntax.Call):
    """The callee is resolved first.  An eager builtin gets its argument
    values, evaluated in call order in the caller's environment; every
    other function gets one promise per argument.  The choice is made on
    the resolved function at each call, so rebinding a builtin's name to
    a closure restores laziness.

    A binary operator called with two unnamed arguments is applied
    directly while no frame has bound its name; once `Environment.bind`
    has marked it in `interp.shadowed`, the site takes the general call.
    The same mark lets `Interpreter.find_function` return an unbound base
    name's builtin without walking the frames: an assumption that a
    write invalidates, with a fallback (Würthinger et al., Onward! 2013)."""
    loc = e.loc
    arg_exprs = e.args
    arg_runs = [(name, compile_expr(arg)) for name, arg in e.args]
    if isinstance(e.callee, syntax.Symbol):
        fname, callee_run = e.callee.name, None
    else:
        fname, callee_run = None, compile_expr(e.callee)

    def run(interp, env):
        fn = callee_run(interp, env) if callee_run else interp.lookup_function(fname, env, loc)
        try:
            if fn.kind == values.BUILTIN and not fn.payload.lazy:
                args = [(name, arg(interp, env)) for name, arg in arg_runs]
                return interp.call_value(fn, args, loc, env, fname, forced=True)
            args = [(name, Promise(arg, env)) for name, arg in arg_exprs]
            return interp.call_value(fn, args, loc, env, fname)
        except MlsError as err:
            if err.loc is None:
                err.loc = loc
            raise

    if fname not in BINARY_OPERATORS or len(arg_runs) != 2 or any(n for n, _ in arg_runs):
        return run
    (_, lhs_run), (_, rhs_run) = arg_runs

    compare, arith = ops._COMPARE.get(fname), ops._ARITH.get(fname)
    overflow = f"integer overflow in '{fname}'"

    def run_operator(interp, env):
        if fname in interp.shadowed:
            return run(interp, env)
        try:
            lhs = lhs_run(interp, env)
            rhs = rhs_run(interp, env)
            if (lhs.kind in _NUMBER_KINDS and rhs.kind in _NUMBER_KINDS
                    and len(lhs.payload) == 1 and len(rhs.payload) == 1
                    and not lhs.attributes and not rhs.attributes):
                x, y = lhs.payload[0], rhs.payload[0]
                if compare is not None:
                    value = Value(values.LOGICAL, [bool(compare(x, y))])
                elif arith is None:  # "/"
                    value = Value(values.DOUBLE, [ops._safe_div(x, y)])
                elif lhs.kind == rhs.kind == values.INTEGER:
                    z = arith(x, y)
                    if not -values.INT_MAX <= z <= values.INT_MAX:
                        raise MlsError(overflow, loc)
                    value = Value(values.INTEGER, [z])
                else:
                    value = Value(values.DOUBLE, [arith(x, y)])  # int-op-float is a float
            else:
                value = apply_operator(interp, fname, lhs, rhs, env, loc)
        except MlsError as err:
            if err.loc is None:
                err.loc = loc
            raise
        interp.visible = True
        return value

    return run_operator


def _compile_assign(e):
    """`name <- v` binds in the current frame; `name <<- v` in the first
    enclosing frame that has `name`, else in the global one."""
    name, loc, value_run = e.target.name, e.loc, compile_expr(e.value)
    local = isinstance(e, syntax.Assign)

    def run(interp, env):
        v = value_run(interp, env)
        if local:
            env.bind(name, v, interp)
        else:
            interp.assign_super(name, v, env, loc)
        interp.visible = False
        return v

    return run


def _compile_block(e: syntax.Block):
    body_runs = [compile_expr(stmt) for stmt in e.body]
    null = values.null_value()

    def run(interp, env):
        result = null
        interp.visible = True
        for stmt in body_runs:
            result = stmt(interp, env)
        return result

    return run


def _compile_if(e: syntax.If):
    cond_run, cond_loc, then_run = compile_expr(e.cond), e.cond.loc, compile_expr(e.then)
    else_run = compile_expr(e.orelse) if e.orelse is not None else None

    def run(interp, env):
        if ops.truthy(cond_run(interp, env), cond_loc):
            return then_run(interp, env)
        if else_run is not None:
            return else_run(interp, env)
        interp.visible = False
        return values.null_value()

    return run


def _compile_while(e: syntax.While):
    cond_run, cond_loc, body_run = compile_expr(e.cond), e.cond.loc, compile_expr(e.body)

    def run(interp, env):
        while ops.truthy(cond_run(interp, env), cond_loc):
            body_run(interp, env)
        interp.visible = False
        return values.null_value()

    return run


def _compile_function(e: syntax.FunctionLiteral):
    formals, body = e.formals, e.body

    def run(interp, env):
        interp.visible = True
        return Value(values.CLOSURE, values.Closure(formals, body, env))

    return run


def _compile_index(e: syntax.Index):
    obj_run, loc = compile_expr(e.obj), e.loc
    index_runs = [compile_expr(i) for i in e.indices]

    def run(interp, env):
        obj = obj_run(interp, env)
        indices = [index(interp, env) for index in index_runs]
        interp.visible = True
        return ops.index_get(obj, indices, loc)

    return run


def _compile_index_assign(e: syntax.IndexAssign):
    name, loc, value_run = e.obj.name, e.loc, compile_expr(e.value)
    target_run = _compile_symbol(syntax.Symbol(name, loc=loc))  # errors name the assignment
    index_runs = [compile_expr(i) for i in e.indices]

    def run(interp, env):
        current = target_run(interp, env)
        indices = [index(interp, env) for index in index_runs]
        v = value_run(interp, env)
        updated = ops.index_assign(current, indices, v, loc)
        env.bind(name, updated, interp)
        interp.visible = False
        return v

    return run


def _compile_field_access(e: syntax.FieldAccess):
    obj_run, name, loc = compile_expr(e.obj), e.name, e.loc

    def run(interp, env):
        obj = obj_run(interp, env)
        interp.visible = True
        return interp.field_get(obj, name, loc)

    return run


def _compile_field_assign(e: syntax.FieldAssign):
    """`x$f <- v` sets a field of an instance or environment bound to `x`,
    or rebinds `x` to an updated list; `expr$f <- v` needs `expr` to be
    an instance or environment."""
    field, loc, value_run = e.name, e.loc, compile_expr(e.value)
    name = e.obj.name if isinstance(e.obj, syntax.Symbol) else None
    target_run = compile_expr(e.obj)

    def run(interp, env):
        v = value_run(interp, env)
        target = target_run(interp, env)
        if target.kind == values.REF_INSTANCE:
            refclasses.field_set(interp, target, field, v, loc)
        elif target.kind == values.ENVIRONMENT:
            target.payload.bind(field, v, interp)
        elif name is None:
            raise MlsError("cannot assign to a field of a temporary value", loc)
        elif target.kind in (values.LIST, values.NULL):
            updated = ops.field_assign_list(target, field, v, loc)
            env.bind(name, updated, interp)
        else:
            cls = values.implicit_class(target).payload[0]
            raise MlsError(f"cannot set a field on an object of class '{cls}'", loc)
        interp.visible = False
        return v

    return run


_COMPILERS = {
    syntax.Constant: _compile_constant,
    syntax.Symbol: _compile_symbol,
    syntax.Call: _compile_call,
    syntax.Assign: _compile_assign,
    syntax.SuperAssign: _compile_assign,
    syntax.Block: _compile_block,
    syntax.If: _compile_if,
    syntax.While: _compile_while,
    syntax.FunctionLiteral: _compile_function,
    syntax.Index: _compile_index,
    syntax.IndexAssign: _compile_index_assign,
    syntax.FieldAccess: _compile_field_access,
    syntax.FieldAssign: _compile_field_assign,
}
