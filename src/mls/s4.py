"""Formal functional OOP: explicit class definitions with typed slots,
reflective generics, and best-match multiple dispatch.

Dispatch ranks every admissible method by its per-argument inheritance
distances: smallest sum wins, ties break lexicographically left to
right, and an exact tie is an ambiguity error.  Distances are shortest
paths in the containment graph; the wildcard "ANY" sits strictly below
every real superclass."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import syntax, values
from .environment import Environment, entry_value
from .values import MlsError, Value

ANY = "ANY"

# name -> (value kinds it admits, direct superclasses, zero value maker or
# None when a slot or field of the class needs an explicit value)
BASIC_CLASSES = {
    "numeric": ((values.INTEGER, values.DOUBLE), [], lambda: values.double_vec([])),
    "double": ((values.DOUBLE,), ["numeric"], lambda: values.double_vec([])),
    "integer": ((values.INTEGER,), ["numeric"], lambda: values.int_vec([])),
    "logical": ((values.LOGICAL,), [], lambda: values.logical_vec([])),
    "character": ((values.STRING,), [], lambda: values.string_vec([])),
    "list": ((values.LIST,), [], lambda: values.list_value([])),
    "function": ((values.CLOSURE, values.BUILTIN), [], None),
    "NULL": ((values.NULL,), [], values.null_value),
    "environment": ((values.ENVIRONMENT,), [], None),
    "expression": ((), [], None),
}


@dataclass
class ClassDef:
    """A class as declared.  What it inherits is `Registry.lineage`."""

    name: str
    own_slots: dict
    contains: list
    virtual: bool = False
    basic: bool = False
    ref: Optional[object] = None  # refclasses.RefClassDef of a reference class


@dataclass
class Lineage:  # what a class inherits under the current declarations
    distances: dict  # class name -> shortest path, in linearization order
    slots: dict  # merged, subclass first
    fields: dict  # reference classes: merged, root first
    methods: dict  # reference classes: merged, root first


@dataclass
class MethodDef:
    signature: tuple
    fn: Value  # closure


@dataclass
class GenericDef:
    name: str
    formals: list  # as Closure formals
    signature: tuple  # dispatch argument names
    methods: dict = field(default_factory=dict)  # signature tuple -> MethodDef
    def_env: Optional[Environment] = None


class Registry:
    """The one class graph of S4, reference and basic classes.  Lineages are
    derived from current declarations and memoized until a redefinition."""

    def __init__(self):
        basics = BASIC_CLASSES.items()
        self.classes = {n: ClassDef(n, {}, sups, basic=True) for n, (_, sups, _) in basics}
        self.generics: dict = {}
        self._lineages: dict = {}

    # -- classes -------------------------------------------------------------

    def define_class(self, name, own_slots, contains, virtual=False, ref=None, loc=None):
        """Add or replace a class; a rejected definition changes nothing."""
        if name in BASIC_CLASSES:
            raise MlsError(f"cannot redefine basic class '{name}'", loc)
        for sup in contains:
            if sup not in self.classes:
                raise MlsError(f"undefined superclass '{sup}' for class '{name}'", loc)
            if name == sup or name in self.lineage(sup).distances:
                raise MlsError(f"inheritance cycle through class '{name}'", loc)
        cdef = ClassDef(name, own_slots, contains, virtual, ref=ref)
        committed = self.classes, self._lineages
        self.classes = {**self.classes, name: cdef}
        redefined = name in committed[0]  # a new name is in no existing lineage
        if redefined:
            self._lineages = {}
        try:
            for cname in self.classes if redefined else [name]:
                self.lineage(cname, loc)
        except MlsError:
            self.classes, self._lineages = committed
            raise
        return cdef

    def lineage(self, name: str, loc=None) -> Lineage:
        found = self._lineages.get(name)
        if found is not None:
            return found
        cdef = self.classes[name]
        # depth first over contains, first occurrence wins the position;
        # the distance is the shortest path in the containment graph
        dist = {name: 0}
        for sup in cdef.contains:
            for c, d in self.lineage(sup, loc).distances.items():
                if d + 1 < dist.get(c, d + 2):
                    dist[c] = d + 1
        slots = {}
        for c in dist:
            for slot, declared in self.classes[c].own_slots.items():
                if slot in slots:
                    raise MlsError(
                        f"slot '{slot}' in class '{name}' is already defined by '{c}'", loc
                    )
                slots[slot] = declared
        fields, methods = {}, {}
        if cdef.ref is not None:
            for sup in cdef.contains:
                if self.classes[sup].ref is None:
                    raise MlsError(f"superclass '{sup}' is not a reference class", loc)
                fields.update(self.lineage(sup).fields)
                methods.update(self.lineage(sup).methods)
            taken = sorted(cdef.ref.fields.keys() & fields.keys())
            if taken:
                raise MlsError(
                    f"field '{taken[0]}' of class '{name}' is already declared by a superclass", loc
                )
            fields.update(cdef.ref.fields)
            methods.update(cdef.ref.methods)  # a method may override an inherited one
            clash = ", ".join(sorted(fields.keys() & methods.keys()))
            if clash:
                raise MlsError(f"names used for both a field and a method: {clash}", loc)
        found = self._lineages[name] = Lineage(dist, slots, fields, methods)
        return found

    def distance(self, frm: str, to: str) -> Optional[int]:
        lin = self._lineages.get(frm)
        if lin is None:
            if frm not in self.classes:
                return 1 if to == ANY else None
            lin = self.lineage(frm)
        return len(lin.distances) if to == ANY else lin.distances.get(to)

    def check_value(self, v: Value, declared: str, what: str, loc=None):
        """Raise unless `v` may be stored in `what`, a slot or field
        declared with class `declared`."""
        basic = BASIC_CLASSES.get(declared)
        if basic is not None:
            if v.kind in basic[0]:
                return
        elif declared == ANY or self.distance(dispatch_class_of(v), declared) is not None:
            return
        raise MlsError(
            f"invalid value for {what}: expected '{declared}', got '{dispatch_class_of(v)}'", loc
        )

    # -- generics ------------------------------------------------------------

    def define_generic(self, name, formals, signature=None, def_env=None, loc=None) -> GenericDef:
        formal_names = [n for n, _ in formals]
        if signature is None:
            signature = tuple(formal_names)
        else:
            for s in signature:
                if s not in formal_names:
                    raise MlsError(
                        f"dispatch argument '{s}' is not a formal argument of '{name}'", loc
                    )
            # keep formal-argument order regardless of how the caller spelled it
            signature = tuple(n for n in formal_names if n in set(signature))
        gdef = GenericDef(name, formals, signature, def_env=def_env)
        self.generics[name] = gdef
        return gdef

    def define_method(self, generic_name, signature, fn: Value, loc=None) -> MethodDef:
        gdef = self.generics.get(generic_name)
        if gdef is None:
            raise MlsError(f"no generic function '{generic_name}' is defined", loc)
        signature = tuple(signature)
        if len(signature) != len(gdef.signature):
            raise MlsError(
                f"method signature for '{generic_name}' must have "
                f"{len(gdef.signature)} classes, got {len(signature)}",
                loc,
            )
        for cls in signature:
            if cls != ANY and cls not in self.classes:
                raise MlsError(f"undefined class '{cls}' in method signature", loc)
        if fn.kind != values.CLOSURE:
            raise MlsError("method implementation must be a function", loc)
        method_names = [n for n, _ in fn.payload.formals]
        generic_names = [n for n, _ in gdef.formals]
        if method_names != generic_names:
            raise MlsError(
                f"method formals ({', '.join(method_names)}) must match the generic's "
                f"({', '.join(generic_names)})",
                loc,
            )
        mdef = MethodDef(signature, fn)
        gdef.methods[signature] = mdef
        return mdef

    def select_method(self, gdef: GenericDef, actual_classes, loc=None) -> MethodDef:
        actual_classes = tuple(actual_classes)
        admissible = []
        for mdef in gdef.methods.values():
            dists = []
            for actual, declared in zip(actual_classes, mdef.signature):
                d = self.distance(actual, declared)
                if d is None:
                    break
                dists.append(d)
            else:
                admissible.append((sum(dists), tuple(dists), mdef))
        if not admissible:
            raise MlsError(
                f"unable to find an inherited method for function '{gdef.name}' "
                f"for signature ({', '.join(actual_classes)})",
                loc,
            )
        best = min(key[:2] for key in admissible)
        winners = [m for s, t, m in admissible if (s, t) == best]
        if len(winners) > 1:
            sigs = sorted("(" + ", ".join(m.signature) + ")" for m in winners)
            raise MlsError(
                f"ambiguous method selection for '{gdef.name}': candidates {'; '.join(sigs)}",
                loc,
            )
        return winners[0]


# -- value/class relationships ----------------------------------------------

def dispatch_class_of(v: Value) -> str:
    if v.kind in values.FORMAL_KINDS:
        return v.payload.class_name
    return values.implicit_class(v).payload[0]


def declared_members(v: Value, what: str, class_name: str, loc) -> dict:
    """The entries of `v`, the named list of slots, fields or methods that
    class `class_name` declares, by name."""
    out = {}
    if values.is_null(v):
        return out
    if v.kind != values.LIST:
        raise MlsError(f"{what}s must be a named list", loc)
    names = values.element_names(v) or []
    if len(names) != len(v.payload) or not all(names):
        raise MlsError(f"every {what} must be named", loc)
    for member, x in zip(names, v.payload):
        if member in out:
            raise MlsError(f"duplicate {what} '{member}' in class '{class_name}'", loc)
        out[member] = x
    return out


def zero_value(declared: str) -> Optional[Value]:
    if declared == ANY:
        return values.null_value()
    maker = BASIC_CLASSES.get(declared, (None, None, None))[2]
    return maker() if maker is not None else None


def new_instance(interp, class_name: str, inits, loc=None) -> Value:
    """Construct and validate an instance; inits is (name, Value) pairs."""
    cdef = interp.s4.classes.get(class_name)
    if cdef is None:
        raise MlsError(f'undefined class "{class_name}"', loc)
    if cdef.virtual:
        raise MlsError(f'cannot allocate an object of a virtual class ("{class_name}")', loc)
    if cdef.basic:
        if inits:
            raise MlsError(f"cannot pass slot values to basic class '{class_name}'", loc)
        zero = zero_value(class_name)
        if zero is None:
            raise MlsError(f"cannot instantiate basic class '{class_name}'", loc)
        return zero
    slots = interp.s4.lineage(class_name).slots
    slot_values = {}
    for name, v in inits:
        if not name:
            raise MlsError(f'unnamed argument in new("{class_name}")', loc)
        if name not in slots:
            raise MlsError(f"unknown slot '{name}' for class \"{class_name}\"", loc)
        if name in slot_values:
            raise MlsError(f"slot '{name}' initialized twice", loc)
        slot_values[name] = v
    out = {}
    for name, declared in slots.items():
        if name in slot_values:
            v = slot_values[name]
            interp.s4.check_value(v, declared, f"slot '{name}' of class \"{class_name}\"", loc)
            out[name] = v
        else:
            zero = zero_value(declared)
            if zero is None:
                raise MlsError(
                    f"slot '{name}' of class \"{class_name}\" requires an explicit value", loc
                )
            out[name] = zero
    return Value(values.S4_INSTANCE, values.S4Payload(class_name, out))


def slot_get(obj: Value, name: str, loc=None) -> Value:
    if obj.kind != values.S4_INSTANCE:
        raise MlsError("slot() requires a formally classed object", loc)
    if name not in obj.payload.slot_values:
        raise MlsError(f"no slot '{name}' in an object of class \"{obj.payload.class_name}\"", loc)
    return obj.payload.slot_values[name]


def slot_set(interp, obj: Value, name: str, v: Value, loc=None) -> Value:
    if obj.kind != values.S4_INSTANCE:
        raise MlsError("slot_set() requires a formally classed object", loc)
    declared = interp.s4.lineage(obj.payload.class_name).slots.get(name)
    if declared is None:
        raise MlsError(f"no slot '{name}' in an object of class \"{obj.payload.class_name}\"", loc)
    what = f"slot '{name}' of class \"{obj.payload.class_name}\""
    interp.s4.check_value(v, declared, what, loc)
    new_slots = dict(obj.payload.slot_values)
    new_slots[name] = v
    return Value(values.S4_INSTANCE, values.S4Payload(obj.payload.class_name, new_slots))


def call_generic(interp, gdef: GenericDef, args, caller_env, loc=None) -> Value:
    """Dispatch a generic call: force only the dispatch arguments, select
    the best method, and run it with the original promises."""
    shim = values.Closure(gdef.formals, None, gdef.def_env or interp.global_env)
    call_env = interp.match_arguments(shim, args, loc, gdef.name)
    actual_classes = []
    for name in gdef.signature:
        v = entry_value(call_env.frame[name], interp, loc)
        actual_classes.append(dispatch_class_of(v))
    mdef = interp.s4.select_method(gdef, actual_classes, loc)
    method_env = Environment(mdef.fn.payload.enclosure, f"call:{gdef.name}")
    for name, entry in call_env.frame.items():
        method_env.bind(name, entry, interp)
    return interp.exec_closure(mdef.fn, method_env, caller_env, loc, args)


def is_standard_generic_body(body) -> bool:
    return (
        isinstance(body, syntax.Call)
        and isinstance(body.callee, syntax.Symbol)
        and body.callee.name == "standardGeneric"
    )
