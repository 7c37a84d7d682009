"""Builtin functions installed in the base environment.

Most builtins take forced values matched against declared formals; a
few (`&&`, `||`) receive raw promises so they can short-circuit.
"""

from __future__ import annotations

import math

from . import ops, printer, refclasses, s3, s4, values
from .environment import Binding
from .interpreter import BINARY_OPERATORS, REQUIRED, BuiltinPayload, apply_operator
from .values import MlsError, Value


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
    """`apply_operator` on two operands; with `unary`, one operand goes
    to `ops.arith_unary`."""
    arity = "one or two arguments" if unary else "two arguments"

    def fn(ctx, args):
        vals = [v for _, v in args]
        if unary and len(vals) == 1:
            return ops.arith_unary(op, vals[0], ctx.loc)
        if len(vals) != 2:
            raise MlsError(f"operator '{op}' takes {arity}", ctx.loc)
        return apply_operator(ctx.interp, op, vals[0], vals[1], ctx.env, ctx.loc)

    return fn


def _bi_not(ctx, x):
    return ops.logical_not(x, ctx.loc)


def _make_shortcircuit(op):
    def fn(ctx, args):
        if len(args) != 2 or any(n for n, _ in args):
            raise MlsError(f"'{op}' requires two unnamed arguments", ctx.loc)
        left = ops.truthy(args[0][1].force(ctx.interp), ctx.loc)
        if op == "&&" and not left:
            return values.scalar_bool(False)
        if op == "||" and left:
            return values.scalar_bool(True)
        return values.scalar_bool(ops.truthy(args[1][1].force(ctx.interp), ctx.loc))

    return fn


# -- core ---------------------------------------------------------------------


def _bi_c(ctx, args):
    return ops.concat(args, ctx.loc)


def _bi_list(ctx, args):
    items = [v for _, v in args]
    names = [n or "" for n, _ in args]
    if any(names):
        return Value(values.LIST, items, {"names": values.string_vec(names)})
    return Value(values.LIST, items)


def _bi_length(ctx, x):
    if x.kind == values.NULL:
        return values.scalar_int(0)
    if x.kind in values.VECTOR_KINDS or x.kind == values.LIST:
        return values.scalar_int(len(x.payload))
    return values.scalar_int(1)


def _bi_sum(ctx, x):
    return ops.vector_sum(x, ctx.loc)


def _bi_paste(ctx, args):
    parts = []
    for _, v in args:
        if v.kind == values.NULL:
            continue
        if v.kind not in values.VECTOR_KINDS:
            raise MlsError("paste() requires vector arguments", ctx.loc)
        parts.extend(
            printer.format_element(v.kind, x, quote_strings=False) for x in v.payload
        )
    return values.scalar_string(" ".join(parts))


def _bi_el(ctx, x, i):
    pos = _scalar_int(i, "element index", ctx.loc)
    if x.kind not in (values.LIST,) + values.VECTOR_KINDS:
        raise MlsError("el() requires a list or vector", ctx.loc)
    if not 1 <= pos <= len(x.payload):
        raise MlsError(f"index {pos} out of bounds (length {len(x.payload)})", ctx.loc)
    if x.kind == values.LIST:
        return x.payload[pos - 1]
    return Value(x.kind, [x.payload[pos - 1]])


def _bi_names(ctx, x):
    return values.get_attribute(x, "names")


def _bi_attr(ctx, x, which):
    return values.get_attribute(x, _scalar_string(which, "attribute name", ctx.loc))


def _bi_set_attr(ctx, x, which, value):
    return values.set_attribute(x, _scalar_string(which, "attribute name", ctx.loc), value)


def _bi_class(ctx, x):
    return values.implicit_class(x)


def _bi_inherits(ctx, x, what):
    cls = _scalar_string(what, "class name", ctx.loc)
    return values.scalar_bool(cls in s3.class_vector(ctx.interp, x))


def _bi_is_null(ctx, x):
    return values.scalar_bool(values.is_null(x))


def _bi_identity(ctx, x):
    return x


def _bi_print_default(ctx, x):
    ctx.interp.write(printer.format_value(x, ctx.interp) + "\n")
    return x


def _bi_stop(ctx, message=None):
    if message is None or values.is_null(message):
        raise MlsError("error", ctx.loc)
    raise MlsError(_scalar_string(message, "error message", ctx.loc), ctx.loc)


def _bi_copy(ctx, x):
    if x.kind == values.REF_INSTANCE:
        return refclasses.copy_instance(ctx.interp, x, ctx.loc)
    return values.deep_copy(x)


# -- environments ---------------------------------------------------------------


def _bi_environment(ctx):
    return ctx.env.env_value()


def _bi_globalenv(ctx):
    return ctx.interp.global_env.env_value()


def _bi_assign(ctx, name, value, envir=None):
    target = ctx.env
    if envir is not None and not values.is_null(envir):
        if envir.kind != values.ENVIRONMENT:
            raise MlsError("envir must be an environment", ctx.loc)
        target = envir.payload
    target.bind(_scalar_string(name, "name", ctx.loc), value, ctx.interp)
    return value


# -- interpreter state ------------------------------------------------------------


def _bi_options(ctx, name, value):
    ctx.interp.set_option(_scalar_string(name, "option name", ctx.loc), value)
    return values.null_value()


def _bi_get_option(ctx, name):
    return ctx.interp.get_option(_scalar_string(name, "option name", ctx.loc))


def _bi_get_option_from(ctx, opts, name):
    if opts.kind != values.LIST:
        raise MlsError("opts must be a named list", ctx.loc)
    return ops.field_get_list(opts, _scalar_string(name, "option name", ctx.loc))


def _bi_set_seed(ctx, seed):
    ctx.interp.rng_set_seed(_scalar_int(seed, "seed", ctx.loc))
    return values.null_value()


def _bi_rng_draw(ctx, n):
    count = _scalar_int(n, "count", ctx.loc)
    if count < 0:
        raise MlsError("invalid count for rng_draw", ctx.loc)
    if count > values.MAX_LENGTH:
        raise MlsError(f"invalid count for rng_draw: more than {values.MAX_LENGTH} draws", ctx.loc)
    return ctx.interp.rng_draw(count)


def _bi_foreign(ctx, args):
    if not args or args[0][0] is not None:
        raise MlsError("foreign() requires a tag as its first argument", ctx.loc)
    tag = _scalar_string(args[0][1], "foreign tag", ctx.loc)
    stub = ctx.interp.foreign_stubs.get(tag)
    if stub is None:
        raise MlsError(f"unknown foreign tag '{tag}'", ctx.loc)
    return stub(ctx.interp, [v for _, v in args[1:]])


# -- S3 -----------------------------------------------------------------------


def _bi_use_method(ctx, generic):
    s3.use_method(ctx.interp, _scalar_string(generic, "generic name", ctx.loc), ctx.loc)


# -- S4 -----------------------------------------------------------------------


def _class_def_reflection(cdef: s4.ClassDef, lin: s4.Lineage) -> Value:
    slots = values.string_vec(list(lin.slots.values()))
    if lin.slots:
        slots = Value(values.STRING, slots.payload, {"names": values.string_vec(list(lin.slots))})
    out = values.list_value(
        [
            values.scalar_string(cdef.name),
            slots,
            values.string_vec(cdef.contains),
            values.scalar_bool(cdef.virtual),
        ],
        names=["name", "slots", "contains", "virtual"],
    )
    return values.set_attribute(out, "class", values.string_vec(["classDefinition"]))


def _bi_set_class(ctx, name, slots, contains, virtual):
    cname = _scalar_string(name, "class name", ctx.loc)
    own_slots = {
        sname: _scalar_string(sval, f"class of slot '{sname}'", ctx.loc)
        for sname, sval in s4.declared_members(slots, "slot", cname, ctx.loc).items()
    }
    parents = []
    if not values.is_null(contains):
        if contains.kind != values.STRING:
            raise MlsError("contains must be a character vector", ctx.loc)
        parents = list(contains.payload)
    is_virtual = not values.is_null(virtual) and ops.truthy(virtual, ctx.loc)
    cdef = ctx.interp.s4.define_class(cname, own_slots, parents, is_virtual, loc=ctx.loc)
    return _class_def_reflection(cdef, ctx.interp.s4.lineage(cname))


def _generic_reflection(gdef: s4.GenericDef) -> Value:
    out = values.list_value(
        [
            values.scalar_string(gdef.name),
            values.string_vec([n for n, _ in gdef.formals]),
            values.string_vec(list(gdef.signature)),
        ],
        names=["name", "formals", "signature"],
    )
    return values.set_attribute(out, "class", values.string_vec(["genericFunction"]))


def _bi_set_generic(ctx, **kw):
    name, def_, signature = kw["name"], kw["def"], kw["signature"]
    interp = ctx.interp
    gname = _scalar_string(name, "generic name", ctx.loc)
    default_method = None
    if values.is_null(def_):
        existing = interp.lookup_function(gname, ctx.env, ctx.loc)
        if existing.kind != values.CLOSURE:
            raise MlsError(
                f"setGeneric('{gname}') needs an explicit def: no existing function to adopt",
                ctx.loc,
            )
        formals = existing.payload.formals
        default_method = existing
    else:
        if def_.kind != values.CLOSURE:
            raise MlsError("def must be a function", ctx.loc)
        formals = def_.payload.formals
        if not s4.is_standard_generic_body(def_.payload.body):
            default_method = def_
    sig = None
    if not values.is_null(signature):
        if signature.kind != values.STRING:
            raise MlsError("signature must be a character vector", ctx.loc)
        sig = tuple(signature.payload)
    gdef = interp.s4.define_generic(gname, formals, sig, def_env=ctx.env, loc=ctx.loc)
    if default_method is not None:
        interp.s4.define_method(
            gname, tuple(s4.ANY for _ in gdef.signature), default_method, ctx.loc
        )
    def call(ctx, args):
        return s4.call_generic(ctx.interp, gdef, args, ctx.env, ctx.loc)

    generic = BuiltinPayload(name=gname, fn=call, lazy=True, meta=gdef)
    ctx.env.bind(gname, Value(values.BUILTIN, generic), interp)
    return _generic_reflection(gdef)


def _bi_set_method(ctx, name, signature, definition):
    gname = _scalar_string(name, "generic name", ctx.loc)
    if signature.kind != values.STRING or len(signature.payload) == 0:
        raise MlsError("signature must be a nonempty character vector", ctx.loc)
    mdef = ctx.interp.s4.define_method(gname, tuple(signature.payload), definition, ctx.loc)
    out = values.list_value(
        [
            values.scalar_string(gname),
            values.string_vec(list(mdef.signature)),
            mdef.fn,
        ],
        names=["generic", "signature", "definition"],
    )
    return values.set_attribute(out, "class", values.string_vec(["methodDefinition"]))


def _bi_standard_generic(ctx, name):
    raise MlsError("standardGeneric called outside a method dispatch", ctx.loc)


def _bi_new(ctx, args):
    if not args or args[0][0] is not None:
        raise MlsError("new() requires a class name as its first argument", ctx.loc)
    cname = _scalar_string(args[0][1], "class name", ctx.loc)
    cdef = ctx.interp.s4.classes.get(cname)
    if cdef is not None and cdef.ref is not None:
        return refclasses.generator_new(ctx.interp, cname, args[1:], ctx.loc)
    return s4.new_instance(ctx.interp, cname, args[1:], ctx.loc)


def _bi_slot(ctx, obj, name):
    return s4.slot_get(obj, _scalar_string(name, "slot name", ctx.loc), ctx.loc)


def _bi_slot_set(ctx, obj, name, value):
    return s4.slot_set(
        ctx.interp, obj, _scalar_string(name, "slot name", ctx.loc), value, ctx.loc
    )


# -- reference classes -----------------------------------------------------------


def _bi_set_ref_class(ctx, name, fields, methods, contains):
    cname = _scalar_string(name, "class name", ctx.loc)
    return refclasses.set_ref_class(
        ctx.interp, cname, fields, methods, contains, ctx.env, ctx.loc
    )


# -- registration ------------------------------------------------------------------


def _registry():
    """Every builtin with its purity class, which `purity.default_policy`
    reads: pure, state_read, rng, foreign, dynamic, global_ref or
    local_assign."""
    null = values.null_value()
    table = []

    def add(name, fn, purity, formals=None, lazy=False, invisible=False):
        table.append((name, fn, purity, formals, lazy, invisible))

    for op in BINARY_OPERATORS:
        add(op, _make_operator(op, unary=op in ("+", "-")), "pure")
    add("!", _bi_not, "pure", [("x", REQUIRED)])
    for op in ("&&", "||"):
        add(op, _make_shortcircuit(op), "pure", lazy=True)

    add("c", _bi_c, "pure")
    add("list", _bi_list, "pure")
    add("length", _bi_length, "pure", [("x", REQUIRED)])
    add("sum", _bi_sum, "pure", [("x", REQUIRED)])
    add("paste", _bi_paste, "pure")
    add("el", _bi_el, "pure", [("x", REQUIRED), ("i", REQUIRED)])
    add("names", _bi_names, "pure", [("x", REQUIRED)])
    add("attr", _bi_attr, "pure", [("x", REQUIRED), ("which", REQUIRED)])
    add("set_attr", _bi_set_attr, "pure", [("x", REQUIRED), ("which", REQUIRED), ("value", null)])
    add("class", _bi_class, "pure", [("x", REQUIRED)])
    add("inherits", _bi_inherits, "pure", [("x", REQUIRED), ("what", REQUIRED)])
    add("is_null", _bi_is_null, "pure", [("x", REQUIRED)])
    add("identity", _bi_identity, "pure", [("x", REQUIRED)])
    add("invisible", _bi_identity, "pure", [("x", null)], invisible=True)
    add("print.default", _bi_print_default, "pure", [("x", REQUIRED)], invisible=True)
    add("stop", _bi_stop, "pure", [("message", None)])
    add("copy", _bi_copy, "pure", [("x", REQUIRED)])

    add("environment", _bi_environment, "pure", [])
    add("globalenv", _bi_globalenv, "global_ref", [])
    add("assign", _bi_assign, "local_assign",
        [("name", REQUIRED), ("value", REQUIRED), ("envir", None)])

    add("options", _bi_options, "state_read", [("name", REQUIRED), ("value", REQUIRED)],
        invisible=True)
    add("get_option", _bi_get_option, "state_read", [("name", REQUIRED)])
    add("get_option_from", _bi_get_option_from, "pure", [("opts", REQUIRED), ("name", REQUIRED)])
    add("set_seed", _bi_set_seed, "rng", [("seed", REQUIRED)], invisible=True)
    add("rng_draw", _bi_rng_draw, "rng", [("n", REQUIRED)])
    add("foreign", _bi_foreign, "foreign")

    add("UseMethod", _bi_use_method, "dynamic", [("generic", REQUIRED)])

    add("setClass", _bi_set_class, "dynamic",
        [("name", REQUIRED), ("slots", null), ("contains", null), ("virtual", null)],
        invisible=True)
    add("setGeneric", _bi_set_generic, "dynamic",
        [("name", REQUIRED), ("def", null), ("signature", null)], invisible=True)
    add("setMethod", _bi_set_method, "dynamic",
        [("name", REQUIRED), ("signature", REQUIRED), ("definition", REQUIRED)],
        invisible=True)
    add("standardGeneric", _bi_standard_generic, "dynamic", [("name", REQUIRED)])
    add("new", _bi_new, "dynamic")
    add("slot", _bi_slot, "pure", [("obj", REQUIRED), ("name", REQUIRED)])
    add("slot_set", _bi_slot_set, "pure",
        [("obj", REQUIRED), ("name", REQUIRED), ("value", REQUIRED)])

    add("setRefClass", _bi_set_ref_class, "dynamic",
        [("name", REQUIRED), ("fields", null), ("methods", null), ("contains", null)])
    return table


_BUILTINS = _registry()
# every builtin's purity class, and the prelude's `print` generic, pure
BUILTIN_PURITY = {name: purity for name, _, purity, *_ in _BUILTINS} | {"print": "pure"}
# every builtin's formals, as `Interpreter.call_value` matches them; None = variadic
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
