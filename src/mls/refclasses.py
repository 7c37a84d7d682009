"""Encapsulated OOP: mutable objects that are environments.

A reference instance is its own frame, an `InstanceFrame`.  Copying the
instance copies the reference, never the frame, so every alias observes
every field mutation.  Methods are closures re-enclosed over the frame:
fields and sibling methods are visible directly by name, and field
assignment inside a method uses `<<-`, which lands on the frame.  Every
field write, by `$<-` or `<<-`, goes through `write_field`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import s4, values
from .environment import Binding, Environment, Promise, entry_value
from .values import MlsError, Value


@dataclass
class RefField:
    name: str
    declared_class: str = s4.ANY
    read_only: bool = False
    active_get: Optional[Value] = None
    active_set: Optional[Value] = None

    @property
    def active(self):
        return self.active_get is not None


@dataclass
class RefClassDef:
    """A reference class's own declarations; `Registry.lineage` merges."""

    name: str
    fields: dict  # name -> RefField
    methods: dict  # name -> closure Value
    def_env: Environment


class InstanceFrame(Environment):
    """The frame that is a reference instance: each stored field bound to
    its value, each active field to a `Binding` of its accessors, each
    method to its closure re-enclosed over the frame, and `.self` to the
    instance.  `fields` is the instance's `RefField` map."""

    __slots__ = ("class_name", "fields")

    def __init__(self, parent, class_name, fields):
        super().__init__(parent, f"ref:{class_name}")
        self.class_name = class_name
        self.fields = fields


def _parse_field_spec(name, spec: Value, loc) -> RefField:
    if spec.kind == values.STRING and len(spec.payload) == 1:
        return RefField(name, spec.payload[0])
    if spec.kind == values.LIST:
        entries = dict(zip(values.element_names(spec) or [], spec.payload))
        if "get" in entries:
            getter = entries["get"]
            setter = entries.get("set")
            if getter.kind != values.CLOSURE or (
                setter is not None and setter.kind != values.CLOSURE
            ):
                raise MlsError(f"active field '{name}' requires function accessors", loc)
            return RefField(name, active_get=getter, active_set=setter)
        declared = entries.get("class")
        declared_name = s4.ANY
        if declared is not None:
            if declared.kind != values.STRING or len(declared.payload) != 1:
                raise MlsError(f"invalid class declaration for field '{name}'", loc)
            declared_name = declared.payload[0]
        read_only = False
        ro = entries.get("readonly")
        if ro is not None:
            read_only = bool(ro.payload and ro.payload[0])
        return RefField(name, declared_name, read_only)
    raise MlsError(f"invalid specification for field '{name}'", loc)


def set_ref_class(interp, name, fields_value, methods_value, contains_value, def_env, loc=None):
    """Register a reference class and return its generator."""
    contains = []
    if not values.is_null(contains_value):
        if contains_value.kind != values.STRING or len(contains_value.payload) != 1:
            raise MlsError("contains must be a single class name", loc)
        contains = list(contains_value.payload)

    fields = {
        fname: _parse_field_spec(fname, spec, loc)
        for fname, spec in s4.declared_members(fields_value, "field", name, loc).items()
    }
    methods = s4.declared_members(methods_value, "method", name, loc)
    for mname, fn in methods.items():
        if fn.kind != values.CLOSURE:
            raise MlsError(f"method '{mname}' must be a function", loc)

    rdef = RefClassDef(name, fields, methods, def_env)
    interp.s4.define_class(name, {}, contains, ref=rdef, loc=loc)
    return generator_value(rdef)


def generator_value(cdef: RefClassDef) -> Value:
    """The generator of class `cdef.name`: an eager builtin whose call, like
    its `$new`, constructs an instance of the class's current definition."""
    from .interpreter import BuiltinPayload

    def construct(ctx, args):
        return generator_new(ctx.interp, cdef.name, args, ctx.loc)

    return Value(values.BUILTIN, BuiltinPayload(name=cdef.name, fn=construct, meta=cdef))


def _re_enclosed(fn: Value, env: Environment) -> Value:
    closure = fn.payload
    return Value(values.CLOSURE, values.Closure(closure.formals, closure.body, env))


def _current(interp, class_name: str, loc):
    """The registry's current definition of reference class `class_name`
    and its lineage."""
    cdef = interp.s4.classes.get(class_name)
    if cdef is None or cdef.ref is None:
        raise MlsError(f"unknown reference class '{class_name}'", loc)
    return cdef, interp.s4.lineage(class_name)


def generator_new(interp, class_name: str, args, loc=None) -> Value:
    """Construct an instance of `class_name`; args is (name, Value) pairs.
    Read-only fields are writable here and nowhere else."""
    cdef, lin = _current(interp, class_name, loc)
    inits = {}
    for name, v in args:
        if not name:
            raise MlsError(f"unnamed argument in constructor for '{class_name}'", loc)
        if name not in lin.fields:
            raise MlsError(f"'{name}' is not a field of class '{class_name}'", loc)
        if lin.fields[name].active:
            raise MlsError(f"cannot initialize active field '{name}'", loc)
        if name in inits:
            raise MlsError(f"field '{name}' initialized twice", loc)
        inits[name] = v

    field_values = {}
    for fname, spec in lin.fields.items():
        if spec.active:
            continue
        if fname in inits:
            v = inits[fname]
            interp.s4.check_value(v, spec.declared_class, f"field '{fname}'", loc)
        else:
            v = s4.zero_value(spec.declared_class)
            if v is None:
                raise MlsError(
                    f"field '{fname}' of class '{class_name}' requires an explicit value", loc
                )
        field_values[fname] = v
    return _build_instance(interp, class_name, lin.fields, lin.methods, cdef.ref.def_env,
                           field_values)


def _build_instance(interp, class_name, fields, methods, parent, field_values) -> Value:
    """An instance on a fresh frame under `parent`: stored `fields` bound
    to `field_values`, active ones' accessors and `methods` re-enclosed
    over it."""
    frame = InstanceFrame(parent, class_name, fields)
    for fname, spec in fields.items():
        if spec.active:
            setter = _re_enclosed(spec.active_set, frame) if spec.active_set else None
            entry = Binding(getter=_re_enclosed(spec.active_get, frame), setter=setter)
        else:
            entry = field_values[fname]
        frame.bind(fname, entry, interp)
    for mname, fn in methods.items():
        frame.bind(mname, _re_enclosed(fn, frame), interp)
    instance = Value(values.REF_INSTANCE, frame)
    frame.bind(".self", instance, interp)
    return instance


def field_or_method(interp, obj: Value, name: str, loc=None) -> Value:
    entry = obj.payload.frame.get(name)
    if entry is None:
        raise MlsError(
            f"'{name}' is not a field or method of class '{obj.payload.class_name}'", loc
        )
    return entry_value(entry, interp, loc)


def write_field(interp, frame: InstanceFrame, name: str, v: Value, loc=None):
    """The one write into a field of `frame`.  A method, `.self` or an
    unknown name is refused; an active field runs its setter; a stored
    field must be writable and `v` of its declared class."""
    spec = frame.fields.get(name)
    if spec is None:
        raise MlsError(f"'{name}' is not a field of class '{frame.class_name}'", loc)
    if spec.active:
        setter = frame.frame[name].setter
        if setter is None:
            raise MlsError(f"active field '{name}' has no setter", loc)
        interp.call_value(setter, [(None, Promise.forced(v))], loc=loc)
        return
    if spec.read_only:
        raise MlsError(f"field '{name}' is read-only", loc)
    interp.s4.check_value(v, spec.declared_class, f"field '{name}'", loc)
    frame.bind(name, v, interp)


def field_set(interp, obj: Value, name: str, v: Value, loc=None):
    write_field(interp, obj.payload, name, v, loc)


def copy_instance(interp, obj: Value, loc=None) -> Value:
    """Explicit escape from aliasing: a fresh frame with the fields and
    methods of the original's own frame, not its class's current ones.
    Fields share the original's values (values are never written after
    construction); reference instances in fields are copied recursively."""
    old = obj.payload
    methods, field_values = {}, {}
    for name, entry in old.frame.items():
        spec = old.fields.get(name)
        if spec is None:
            if name != ".self":
                methods[name] = entry
        elif not spec.active:
            if entry.kind == values.REF_INSTANCE:
                entry = copy_instance(interp, entry, loc)
            field_values[name] = entry
    return _build_instance(interp, old.class_name, old.fields, methods, old.parent, field_values)


def generator_field(interp, generator, name: str, loc=None) -> Value:
    """`Gen$name` for the payload of generator `Gen`."""
    from .interpreter import BuiltinPayload

    class_name = generator.meta.name
    if name == "new":
        return Value(values.BUILTIN, BuiltinPayload(name=f"{class_name}$new", fn=generator.fn))
    if name == "className":
        return values.scalar_string(class_name)
    if name == "definition":
        cdef, lin = _current(interp, class_name, loc)
        fields, methods = values.string_vec(list(lin.fields)), values.string_vec(list(lin.methods))
        contains = values.scalar_string(cdef.contains[0]) if cdef.contains else values.null_value()
        out = values.list_value(
            [values.scalar_string(class_name), fields, methods, contains],
            names=["name", "fields", "methods", "contains"],
        )
        return values.set_attribute(out, "class", values.string_vec(["refClassDefinition"]))
    raise MlsError(f"unknown generator field '{name}'", loc)
