"""Builtin functions installed in the base environment.

Each takes the interpreter, the caller's environment and the call's
location first, `(interp, env, loc, ...)`; then most take argument values
bound to declared formals, where a default of None marks a required one;
`&&` and `||` take the argument entries, so they can short-circuit.
Operators apply `s3.apply_operator`.
"""

from __future__ import annotations

import math

from . import ops, printer, refclasses, s3, s4, values
from .environment import Binding, entry_value
from .values import BuiltinPayload, MlsError, Value


def _scalar_string(v: Value, what: str, loc=None) -> str:
    if v is not None and v.kind == values.STRING and len(v.payload) == 1:
        return v.payload[0]
    raise MlsError(f"{what} must be a single string", loc)


def _scalar_int(v: Value, what: str, loc=None) -> int:
    if v is not None and v.kind == values.INTEGER and len(v.payload) == 1:
        return v.payload[0]
    if v is not None and v.kind == values.DOUBLE and len(v.payload) == 1:
        x = v.payload[0]
        if math.isfinite(x) and x == int(x):
            return int(x)
    raise MlsError(f"{what} must be a single integer", loc)


# -- operators ----------------------------------------------------------------


def _make_operator(op, unary=False):
    """`s3.apply_operator` on two operands; with `unary`, one operand goes
    to `ops.arith_unary`."""
    arity = "one or two arguments" if unary else "two arguments"

    def fn(interp, env, loc, args):
        vals = [v for _, v in args]
        if unary and len(vals) == 1:
            return ops.arith_unary(op, vals[0], loc)
        if len(vals) != 2:
            raise MlsError(f"operator '{op}' takes {arity}", loc)
        return s3.apply_operator(interp, op, vals[0], vals[1], env, loc)

    return fn


def _bi_not(interp, env, loc, x):
    return ops.logical_not(x, loc)


def _make_shortcircuit(op):
    def fn(interp, env, loc, args):
        if len(args) != 2 or any(n for n, _ in args):
            raise MlsError(f"'{op}' requires two unnamed arguments", loc)
        left = ops.truthy(entry_value(args[0][1], interp), loc)
        if op == "&&" and not left:
            return values.scalar_bool(False)
        if op == "||" and left:
            return values.scalar_bool(True)
        return values.scalar_bool(ops.truthy(entry_value(args[1][1], interp), loc))

    return fn


# -- core ---------------------------------------------------------------------


def _bi_c(interp, env, loc, args):
    return ops.concat(args, loc)


def _bi_list(interp, env, loc, args):
    items = [v for _, v in args]
    names = [n or "" for n, _ in args]
    if any(names):
        return Value(values.LIST, items, {"names": values.string_vec(names)})
    return Value(values.LIST, items)


def _bi_length(interp, env, loc, x):
    if x.kind == values.NULL:
        return values.scalar_int(0)
    if x.kind in values.VECTOR_KINDS or x.kind == values.LIST:
        return values.scalar_int(len(x.payload))
    return values.scalar_int(1)


def _bi_sum(interp, env, loc, x):
    return ops.vector_sum(x, loc)


def _bi_paste(interp, env, loc, args):
    parts = []
    for _, v in args:
        if v.kind == values.NULL:
            continue
        if v.kind not in values.VECTOR_KINDS:
            raise MlsError("paste() requires vector arguments", loc)
        parts.extend(
            printer.format_element(v.kind, x, quote_strings=False) for x in v.payload
        )
    return values.scalar_string(" ".join(parts))


def _bi_el(interp, env, loc, x, i):
    pos = _scalar_int(i, "element index", loc)
    if x.kind not in (values.LIST,) + values.VECTOR_KINDS:
        raise MlsError("el() requires a list or vector", loc)
    if not 1 <= pos <= len(x.payload):
        raise MlsError(f"index {pos} out of bounds (length {len(x.payload)})", loc)
    if x.kind == values.LIST:
        return x.payload[pos - 1]
    return Value(x.kind, [x.payload[pos - 1]])


def _bi_names(interp, env, loc, x):
    return values.get_attribute(x, "names")


def _bi_attr(interp, env, loc, x, which):
    return values.get_attribute(x, _scalar_string(which, "attribute name", loc))


def _bi_set_attr(interp, env, loc, x, which, value):
    return values.set_attribute(x, _scalar_string(which, "attribute name", loc), value)


def _bi_class(interp, env, loc, x):
    return values.implicit_class(x)


def _bi_inherits(interp, env, loc, x, what):
    cls = _scalar_string(what, "class name", loc)
    return values.scalar_bool(cls in s3.class_vector(interp, x))


def _bi_is_null(interp, env, loc, x):
    return values.scalar_bool(values.is_null(x))


def _bi_identity(interp, env, loc, x):
    return x


def _bi_print_default(interp, env, loc, x):
    interp.write(printer.format_value(x, interp) + "\n")
    return x


def _bi_stop(interp, env, loc, message):
    text = "error" if values.is_null(message) else _scalar_string(message, "error message", loc)
    raise MlsError(text, loc)


def _bi_copy(interp, env, loc, x):
    if x.kind == values.REF_INSTANCE:
        return refclasses.copy_instance(interp, x, loc)
    return values.deep_copy(x)


# -- environments ---------------------------------------------------------------


def _bi_environment(interp, env, loc):
    return env.env_value()


def _bi_globalenv(interp, env, loc):
    return interp.global_env.env_value()


def _bi_assign(interp, env, loc, name, value, envir):
    if not values.is_null(envir) and envir.kind != values.ENVIRONMENT:
        raise MlsError("envir must be an environment", loc)
    target = env if values.is_null(envir) else envir.payload
    target.bind(_scalar_string(name, "name", loc), value, interp)
    return value


# -- interpreter state ------------------------------------------------------------


def _bi_options(interp, env, loc, name, value):
    interp.set_option(_scalar_string(name, "option name", loc), value)
    return values.null_value()


def _bi_get_option(interp, env, loc, name):
    return interp.get_option(_scalar_string(name, "option name", loc))


def _bi_get_option_from(interp, env, loc, opts, name):
    if opts.kind != values.LIST:
        raise MlsError("opts must be a named list", loc)
    return ops.field_get_list(opts, _scalar_string(name, "option name", loc))


def _bi_set_seed(interp, env, loc, seed):
    interp.rng_set_seed(_scalar_int(seed, "seed", loc))
    return values.null_value()


def _bi_rng_draw(interp, env, loc, n):
    count = _scalar_int(n, "count", loc)
    if count < 0:
        raise MlsError("invalid count for rng_draw", loc)
    if count > values.MAX_LENGTH:
        raise MlsError(f"invalid count for rng_draw: more than {values.MAX_LENGTH} draws", loc)
    return interp.rng_draw(count)


def _bi_foreign(interp, env, loc, args):
    if not args or args[0][0] is not None:
        raise MlsError("foreign() requires a tag as its first argument", loc)
    tag = _scalar_string(args[0][1], "foreign tag", loc)
    stub = interp.foreign_stubs.get(tag)
    if stub is None:
        raise MlsError(f"unknown foreign tag '{tag}'", loc)
    return stub(interp, [v for _, v in args[1:]])


# -- S3 -----------------------------------------------------------------------


def _bi_use_method(interp, env, loc, generic):
    s3.use_method(interp, _scalar_string(generic, "generic name", loc), loc)


# -- S4 -----------------------------------------------------------------------


def _class_def_reflection(cdef: s4.ClassDef, lin: s4.Lineage) -> Value:
    slots = values.string_vec(list(lin.slots.values()))
    if lin.slots:
        slots = Value(values.STRING, slots.payload, {"names": values.string_vec(list(lin.slots))})
    return values.record("classDefinition", name=values.scalar_string(cdef.name), slots=slots,
                         contains=values.string_vec(cdef.contains),
                         virtual=values.scalar_bool(cdef.virtual))


def _bi_set_class(interp, env, loc, name, slots, contains, virtual):
    cname = _scalar_string(name, "class name", loc)
    own_slots = {
        sname: _scalar_string(sval, f"class of slot '{sname}'", loc)
        for sname, sval in s4.declared_members(slots, "slot", cname, loc).items()
    }
    parents = []
    if not values.is_null(contains):
        if contains.kind != values.STRING:
            raise MlsError("contains must be a character vector", loc)
        parents = list(contains.payload)
    is_virtual = not values.is_null(virtual) and ops.truthy(virtual, loc)
    cdef = interp.s4.define_class(cname, own_slots, parents, is_virtual, loc=loc)
    return _class_def_reflection(cdef, interp.s4.lineage(cname))


def _generic_reflection(gdef: s4.GenericDef) -> Value:
    formals = [n for n, _ in gdef.frame_fn.payload.formals]
    return values.record("genericFunction", name=values.scalar_string(gdef.name),
                         formals=values.string_vec(formals),
                         signature=values.string_vec(list(gdef.signature)))


def _bi_set_generic(interp, env, loc, **kw):
    name, def_, signature = kw["name"], kw["def"], kw["signature"]
    gname = _scalar_string(name, "generic name", loc)
    default_method = None
    if values.is_null(def_):
        existing = interp.lookup_function(gname, env, loc)
        if existing.kind != values.CLOSURE:
            raise MlsError(
                f"setGeneric('{gname}') needs an explicit def: no existing function to adopt", loc
            )
        formals = existing.payload.formals
        default_method = existing
    else:
        if def_.kind != values.CLOSURE:
            raise MlsError("def must be a function", loc)
        formals = def_.payload.formals
        if not s4.is_standard_generic_body(def_.payload.body):
            default_method = def_
    sig = None
    if not values.is_null(signature):
        if signature.kind != values.STRING:
            raise MlsError("signature must be a character vector", loc)
        sig = tuple(signature.payload)
    gdef = interp.s4.define_generic(gname, formals, sig, def_env=env, loc=loc)
    if default_method is not None:
        interp.s4.define_method(gname, tuple(s4.ANY for _ in gdef.signature), default_method, loc)
    def call(interp, env, loc, args):
        return s4.call_generic(interp, gdef, args, env, loc)

    generic = BuiltinPayload(name=gname, fn=call, lazy=True, meta=gdef)
    env.bind(gname, Value(values.BUILTIN, generic), interp)
    return _generic_reflection(gdef)


def _bi_set_method(interp, env, loc, name, signature, definition):
    gname = _scalar_string(name, "generic name", loc)
    if signature.kind != values.STRING or len(signature.payload) == 0:
        raise MlsError("signature must be a nonempty character vector", loc)
    mdef = interp.s4.define_method(gname, tuple(signature.payload), definition, loc)
    return values.record("methodDefinition", generic=values.scalar_string(gname),
                         signature=values.string_vec(list(mdef.signature)), definition=mdef.fn)


def _bi_standard_generic(interp, env, loc, name):
    raise MlsError("standardGeneric called outside a method dispatch", loc)


def _bi_new(interp, env, loc, args):
    if not args or args[0][0] is not None:
        raise MlsError("new() requires a class name as its first argument", loc)
    cname = _scalar_string(args[0][1], "class name", loc)
    cdef = interp.s4.classes.get(cname)
    if cdef is not None and cdef.ref is not None:
        return refclasses.generator_new(interp, cname, args[1:], loc)
    return s4.new_instance(interp, cname, args[1:], loc)


def _bi_slot(interp, env, loc, obj, name):
    return s4.slot_get(obj, _scalar_string(name, "slot name", loc), loc)


def _bi_slot_set(interp, env, loc, obj, name, value):
    return s4.slot_set(interp, obj, _scalar_string(name, "slot name", loc), value, loc)


# -- reference classes -----------------------------------------------------------


def _bi_set_ref_class(interp, env, loc, name, fields, methods, contains):
    cname = _scalar_string(name, "class name", loc)
    return refclasses.set_ref_class(interp, cname, fields, methods, contains, env, loc)


# -- registration ------------------------------------------------------------------


def _registry():
    """Every builtin with its purity class, which `purity.default_policy`
    reads: pure, state_read, rng, foreign, dynamic, global_ref or
    local_assign."""
    null = values.null_value()
    table = []

    def add(name, fn, purity, formals=None, lazy=False, invisible=False):
        table.append((name, fn, purity, formals, lazy, invisible))

    for op in ops.BINARY:
        add(op, _make_operator(op, unary=op in ("+", "-")), "pure")
    add("!", _bi_not, "pure", [("x", None)])
    for op in ("&&", "||"):
        add(op, _make_shortcircuit(op), "pure", lazy=True)

    add("c", _bi_c, "pure")
    add("list", _bi_list, "pure")
    add("length", _bi_length, "pure", [("x", None)])
    add("sum", _bi_sum, "pure", [("x", None)])
    add("paste", _bi_paste, "pure")
    add("el", _bi_el, "pure", [("x", None), ("i", None)])
    add("names", _bi_names, "pure", [("x", None)])
    add("attr", _bi_attr, "pure", [("x", None), ("which", None)])
    add("set_attr", _bi_set_attr, "pure", [("x", None), ("which", None), ("value", null)])
    add("class", _bi_class, "pure", [("x", None)])
    add("inherits", _bi_inherits, "pure", [("x", None), ("what", None)])
    add("is_null", _bi_is_null, "pure", [("x", None)])
    add("identity", _bi_identity, "pure", [("x", None)])
    add("invisible", _bi_identity, "pure", [("x", null)], invisible=True)
    add("print.default", _bi_print_default, "pure", [("x", None)], invisible=True)
    add("stop", _bi_stop, "pure", [("message", null)])
    add("copy", _bi_copy, "pure", [("x", None)])

    add("environment", _bi_environment, "pure", [])
    add("globalenv", _bi_globalenv, "global_ref", [])
    add("assign", _bi_assign, "local_assign",
        [("name", None), ("value", None), ("envir", null)])

    add("options", _bi_options, "state_read", [("name", None), ("value", None)],
        invisible=True)
    add("get_option", _bi_get_option, "state_read", [("name", None)])
    add("get_option_from", _bi_get_option_from, "pure", [("opts", None), ("name", None)])
    add("set_seed", _bi_set_seed, "rng", [("seed", None)], invisible=True)
    add("rng_draw", _bi_rng_draw, "rng", [("n", None)])
    add("foreign", _bi_foreign, "foreign")

    add("UseMethod", _bi_use_method, "dynamic", [("generic", None)])

    add("setClass", _bi_set_class, "dynamic",
        [("name", None), ("slots", null), ("contains", null), ("virtual", null)],
        invisible=True)
    add("setGeneric", _bi_set_generic, "dynamic",
        [("name", None), ("def", null), ("signature", null)], invisible=True)
    add("setMethod", _bi_set_method, "dynamic",
        [("name", None), ("signature", None), ("definition", None)],
        invisible=True)
    add("standardGeneric", _bi_standard_generic, "dynamic", [("name", None)])
    add("new", _bi_new, "dynamic")
    add("slot", _bi_slot, "pure", [("obj", None), ("name", None)])
    add("slot_set", _bi_slot_set, "pure",
        [("obj", None), ("name", None), ("value", None)])

    add("setRefClass", _bi_set_ref_class, "dynamic",
        [("name", None), ("fields", null), ("methods", null), ("contains", null)])
    return table


_BUILTINS = _registry()
# every builtin's purity class, and the prelude's `print` generic, pure
BUILTIN_PURITY = {name: purity for name, _, purity, *_ in _BUILTINS} | {"print": "pure"}
# every builtin's formals, as `interpreter.bind_builtin_args` binds them; None = variadic
BUILTIN_FORMALS = {name: formals for name, _, _, formals, *_ in _BUILTINS}
BUILTIN_NAMES = frozenset(BUILTIN_PURITY)  # every name base binds


def install(interp):
    # each interpreter gets its own payloads, and base's entries stay
    # `Binding(value=...)`: `perfbench/mlsbench/tracing.py` reads `.value`
    # off each one to wrap its builtin (see test_bench_hooks.py)
    for name, fn, _, formals, lazy, invisible in _BUILTINS:
        payload = BuiltinPayload(
            name=name, fn=fn, formals=formals, lazy=lazy, invisible=invisible
        )
        interp.base_env.frame[name] = Binding(value=Value(values.BUILTIN, payload))
