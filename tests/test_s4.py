import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import values_equal
from oracles import bfs_distance, definition_verdict, dummy_method, s4_select
from mls import printer, s4, values
from mls.interpreter import Interpreter
from mls.values import MlsError


def run(interp, src):
    return interp.eval_source(src)


# -- class definitions -----------------------------------------------------------

def test_slot_merge_and_linearization(interp):
    run(interp, 'setClass("A", slots = list(x = "numeric"))')
    run(interp, 'setClass("B", slots = list(y = "numeric"), contains = "A")')
    b = interp.s4.lineage("B")
    assert list(b.slots) == ["y", "x"]
    assert list(b.distances.items()) == [("B", 0), ("A", 1)]


def test_unknown_superclass(interp):
    with pytest.raises(MlsError, match="undefined superclass"):
        run(interp, 'setClass("Z", slots = list(), contains = "Nope")')


def test_inheritance_cycle_rejected(interp):
    run(interp, 'setClass("A1", slots = list())')
    run(interp, 'setClass("B1", slots = list(), contains = "A1")')
    with pytest.raises(MlsError, match="cycle"):
        run(interp, 'setClass("A1", slots = list(), contains = "B1")')


def test_redefining_inherited_slot_rejected(interp):
    run(interp, 'setClass("A2", slots = list(x = "numeric"))')
    with pytest.raises(MlsError, match="already defined") as err:
        run(interp, 'setClass("B2", slots = list(x = "numeric"), contains = "A2")')
    assert err.value.message == "slot 'x' in class 'B2' is already defined by 'A2'"


def test_failed_redefinition_keeps_the_previous_class(interp):
    run(interp, 'setClass("A", slots = list(x = "numeric"))')
    run(interp, 'setClass("B", contains = "A", slots = list(y = "numeric"))')
    with pytest.raises(MlsError, match="already defined by 'A'"):
        run(interp, 'setClass("B", contains = "A", slots = list(x = "numeric"))')
    b = run(interp, 'new("B", x = 1, y = 2)')
    slots = {"y": values.int_vec([2]), "x": values.int_vec([1])}
    assert values_equal(b, values.Value(values.S4_INSTANCE, values.S4Payload("B", slots)))


def test_duplicate_slot_rejected(interp):
    with pytest.raises(MlsError, match="duplicate slot"):
        run(interp, 'setClass("D", slots = list(x = "numeric", x = "character"))')


def test_instance_construction_and_validation(interp):
    run(interp, 'setClass("P", slots = list(x = "numeric", tag = "character"))')
    v = run(interp, 'new("P", x = 1, tag = "hi")')
    assert v.kind == values.S4_INSTANCE
    with pytest.raises(MlsError, match="expected 'numeric', got 'character'"):
        run(interp, 'new("P", x = "oops", tag = "hi")')
    with pytest.raises(MlsError, match="unknown slot 'z'"):
        run(interp, 'new("P", z = 1)')


def test_integer_satisfies_numeric_slot(interp):
    run(interp, 'setClass("Q", slots = list(x = "numeric"))')
    v = run(interp, 'new("Q", x = 100)')
    assert run(interp, "slot(inst, 'x')" if False else "1").payload  # placeholder
    assert v.payload.slot_values["x"].kind == values.INTEGER


@pytest.mark.parametrize(
    "src, message",
    [
        ('new("P", x = "oops", tag = "hi")',
         """invalid value for slot 'x' of class "P": expected 'numeric', got 'character'"""),
        ('slot_set(new("P", x = 1, tag = "hi"), "tag", list())',
         """invalid value for slot 'tag' of class "P": expected 'character', got 'list'"""),
        ('new("W", p = 1)',
         """invalid value for slot 'p' of class "W": expected 'P', got 'integer'"""),
    ],
)
def test_invalid_slot_value_message(interp, src, message):
    run(interp, 'setClass("P", slots = list(x = "numeric", tag = "character"))')
    run(interp, 'setClass("W", slots = list(p = "P"))')
    with pytest.raises(MlsError) as err:
        run(interp, src)
    assert err.value.message == message


def test_double_is_a_basic_class_under_numeric(interp):
    v = run(interp, 'new("double")')
    assert (v.kind, v.payload) == (values.DOUBLE, [])
    assert interp.s4.distance("double", "numeric") == 1
    run(interp, 'setClass("Money", contains = "double", slots = list(amount = "double"))')
    assert run(interp, 'new("Money", amount = 1.5)').payload.slot_values["amount"].payload == [1.5]
    assert run(interp, 'new("Money")').payload.slot_values["amount"].payload == []
    with pytest.raises(MlsError, match="expected 'double', got 'integer'"):
        run(interp, 'new("Money", amount = 1)')
    run(interp, 'setGeneric("kind", function(x) standardGeneric("kind"))')
    run(interp, 'setMethod("kind", "numeric", function(x) "numeric")')
    run(interp, 'setMethod("kind", "double", function(x) "double")')
    assert run(interp, 'kind(new("Money"))').payload == ["double"]
    assert run(interp, "kind(1.5)").payload == ["numeric"]


def test_class_and_inherits_of_an_instance(interp):
    run(interp, 'setClass("P", slots = list(x = "numeric"))')
    run(interp, 'p <- new("P", x = 1)')
    assert run(interp, "class(p)").payload == ["P"]
    assert run(interp, 'inherits(p, "P")').payload == [True]
    assert run(interp, 'inherits(p, "numeric")').payload == [False]
    run(interp, 'setClass("Q", contains = "P")')
    run(interp, 'q <- new("Q", x = 1)')
    assert run(interp, "class(q)").payload == ["Q"]
    assert run(interp, 'inherits(q, "P")').payload == [True]
    assert run(interp, 'inherits(p, "Q")').payload == [False]
    run(interp, 'setClass("N", contains = "integer")')
    assert run(interp, 'inherits(new("N"), "numeric")').payload == [True]


def test_use_method_on_an_instance_walks_its_linearization(interp):
    run(interp, 'setClass("P", slots = list(x = "numeric"))')
    run(interp, 'setClass("Q", contains = "P")')
    run(interp, 'describe <- function(obj) UseMethod("describe")')
    run(interp, 'describe.default <- function(obj) "default"')
    assert run(interp, 'describe(new("Q"))').payload == ["default"]
    run(interp, 'describe.P <- function(obj) "a P"')
    assert run(interp, 'describe(new("Q"))').payload == ["a P"]
    run(interp, 'describe.Q <- function(obj) "a Q"')
    assert run(interp, 'describe(new("Q"))').payload == ["a Q"]


# -- redefinitions -----------------------------------------------------------------


def test_redefined_superclass_reaches_an_existing_subclass(interp):
    run(interp, 'setClass("A")')
    run(interp, 'setClass("B", contains = "A")')
    run(interp, 'setClass("Base")')
    run(interp, 'setClass("A", contains = "Base")')
    run(interp, 'setGeneric("who", function(x) standardGeneric("who"))')
    run(interp, 'setMethod("who", "Base", function(x) "base")')
    run(interp, 'setMethod("who", "ANY", function(x) "any")')
    assert run(interp, 'who(new("A"))').payload == ["base"]
    assert run(interp, 'who(new("B"))').payload == ["base"]
    assert interp.s4.distance("B", "Base") == 2


def test_cycle_through_a_redefinition_is_rejected(interp):
    src = (
        'setClass("X")\nsetClass("B")\nsetClass("C", contains = "B")\n'
        'setClass("B", contains = "X")\nsetClass("X", contains = "C")'
    )
    with pytest.raises(MlsError) as err:
        run(interp, src)
    assert err.value.message == "inheritance cycle through class 'X'"
    assert err.value.loc[0] == 5
    assert interp.s4.classes["X"].contains == []
    assert list(interp.s4.lineage("C").distances) == ["C", "B", "X"]


def test_slot_clash_in_an_existing_subclass_rejects_the_redefinition(interp):
    run(interp, 'setClass("A", slots = list(x = "numeric"))')
    run(interp, 'setClass("B", slots = list(y = "numeric"), contains = "A")')
    with pytest.raises(MlsError) as err:
        run(interp, 'setClass("A", slots = list(y = "numeric"))')
    assert err.value.message == "slot 'y' in class 'B' is already defined by 'A'"
    b = run(interp, 'new("B", x = 1, y = 2)')
    slots = {"y": values.int_vec([2]), "x": values.int_vec([1])}
    assert values_equal(b, values.Value(values.S4_INSTANCE, values.S4Payload("B", slots)))


@pytest.mark.parametrize(
    "src",
    ['setClass("numeric")', 'setRefClass("numeric", fields = list(a = "numeric"))',
     'setClass("integer", contains = "numeric")'],
)
def test_basic_class_names_cannot_be_redefined(interp, src):
    with pytest.raises(MlsError) as err:
        run(interp, src)
    name = src.split('"')[1]
    assert err.value.message == f"cannot redefine basic class '{name}'"
    assert err.value.loc == (1, 1)
    assert interp.s4.classes[name].basic
    assert printer.format_value(run(interp, 'new("numeric")'), interp) == "numeric(0)"


def test_zero_value_defaults(interp):
    run(interp, 'setClass("R1", slots = list(x = "numeric", lbl = "character"))')
    v = run(interp, 'new("R1")')
    assert v.payload.slot_values["x"].kind == values.DOUBLE
    assert v.payload.slot_values["x"].payload == []
    assert v.payload.slot_values["lbl"].payload == []


def test_user_class_slot_requires_explicit_value(interp):
    run(interp, 'setClass("Inner", slots = list(v = "numeric"))')
    run(interp, 'setClass("Outer", slots = list(inner = "Inner"))')
    with pytest.raises(MlsError, match="requires an explicit value"):
        run(interp, 'new("Outer")')
    run(interp, 'ok <- new("Outer", inner = new("Inner", v = 1))')


def test_virtual_class_cannot_be_instantiated(interp):
    run(interp, 'setClass("Abstract", slots = list(), virtual = TRUE)')
    with pytest.raises(MlsError, match="virtual class"):
        run(interp, 'new("Abstract")')


def test_slot_access_and_functional_update(interp):
    run(interp, 'setClass("S", slots = list(x = "numeric"))')
    run(interp, 'inst <- new("S", x = 5)')
    assert run(interp, 'slot(inst, "x")').payload == [5]
    run(interp, 'inst2 <- slot_set(inst, "x", 9)')
    assert run(interp, 'slot(inst2, "x")').payload == [9]
    assert run(interp, 'slot(inst, "x")').payload == [5]
    with pytest.raises(MlsError, match="expected 'numeric'"):
        run(interp, 'slot_set(inst, "x", "bad")')
    with pytest.raises(MlsError, match="no slot 'zz'"):
        run(interp, 'slot(inst, "zz")')


# -- distances --------------------------------------------------------------------

def test_superclass_distances(interp):
    run(interp, 'setClass("A3", slots = list())')
    run(interp, 'setClass("B3", slots = list(), contains = "A3")')
    reg = interp.s4
    assert reg.distance("B3", "B3") == 0
    assert reg.distance("B3", "A3") == 1
    assert reg.distance("A3", "B3") is None
    assert reg.distance("B3", s4.ANY) == 2
    assert reg.distance("A3", s4.ANY) == 1


def test_any_distance_exceeds_real_distances(interp):
    run(interp, 'setClass("A4", slots = list())')
    run(interp, 'setClass("B4", slots = list(), contains = "A4")')
    run(interp, 'setClass("C4", slots = list(), contains = "B4")')
    reg = interp.s4
    lin_len = reg.distance("C4", s4.ANY)
    for real in ("C4", "B4", "A4"):
        assert reg.distance("C4", real) < lin_len


# -- method selection ----------------------------------------------------------------

def test_sole_any_method_always_selected(interp):
    reg = interp.s4
    reg.define_class("W", {}, [])
    gdef = reg.define_generic("g1", [("x", None)])
    reg.define_method("g1", ("ANY",), dummy_method(["x"]))
    assert reg.select_method(gdef, ("W",)).signature == ("ANY",)


def test_specific_beats_any(interp):
    reg = interp.s4
    reg.define_class("A5", {}, [])
    reg.define_class("B5", {}, ["A5"])
    gdef = reg.define_generic("g2", [("x", None)])
    reg.define_method("g2", ("ANY",), dummy_method(["x"]))
    reg.define_method("g2", ("A5",), dummy_method(["x"]))
    assert reg.select_method(gdef, ("B5",)).signature == ("A5",)


def test_three_method_table_tie_breaking(interp):
    reg = interp.s4
    reg.define_class("A6", {}, [])
    reg.define_class("C6", {}, [])
    gdef = reg.define_generic("g3", [("x", None), ("y", None)])
    reg.define_method("g3", ("A6", "ANY"), dummy_method(["x", "y"]))
    reg.define_method("g3", ("ANY", "A6"), dummy_method(["x", "y"]))
    reg.define_method("g3", ("A6", "A6"), dummy_method(["x", "y"]))
    assert reg.select_method(gdef, ("A6", "A6")).signature == ("A6", "A6")
    assert reg.select_method(gdef, ("A6", "C6")).signature == ("A6", "ANY")
    assert reg.select_method(gdef, ("C6", "A6")).signature == ("ANY", "A6")


def test_leftmost_tie_break(interp):
    reg = interp.s4
    reg.define_class("A7", {}, [])
    gdef = reg.define_generic("g4", [("x", None), ("y", None)])
    reg.define_method("g4", ("A7", "ANY"), dummy_method(["x", "y"]))
    reg.define_method("g4", ("ANY", "A7"), dummy_method(["x", "y"]))
    assert reg.select_method(gdef, ("A7", "A7")).signature == ("A7", "ANY")


def test_ambiguity_is_an_error(interp):
    reg = interp.s4
    reg.define_class("Base8", {}, [])
    reg.define_class("L8", {}, ["Base8"])
    reg.define_class("R8", {}, ["Base8"])
    reg.define_class("D8", {}, ["L8", "R8"])
    gdef = reg.define_generic("g5", [("x", None)])
    reg.define_method("g5", ("L8",), dummy_method(["x"]))
    reg.define_method("g5", ("R8",), dummy_method(["x"]))
    with pytest.raises(MlsError, match="ambiguous"):
        reg.select_method(gdef, ("D8",))


def test_no_admissible_method(interp):
    reg = interp.s4
    reg.define_class("A9", {}, [])
    reg.define_class("B9", {}, [])
    gdef = reg.define_generic("g6", [("x", None)])
    reg.define_method("g6", ("A9",), dummy_method(["x"]))
    with pytest.raises(MlsError, match="unable to find an inherited method"):
        reg.select_method(gdef, ("B9",))


def test_method_replacement_last_wins(interp):
    run(interp, 'setClass("A10", slots = list())')
    run(interp, 'setGeneric("g7", function(x) standardGeneric("g7"))')
    run(interp, 'setMethod("g7", c("A10"), function(x) "first")')
    run(interp, 'setMethod("g7", c("A10"), function(x) "second")')
    assert run(interp, 'g7(new("A10"))').payload == ["second"]


def test_monotonicity_adding_losing_method(interp):
    reg = interp.s4
    reg.define_class("A11", {}, [])
    reg.define_class("B11", {}, ["A11"])
    gdef = reg.define_generic("g8", [("x", None)])
    reg.define_method("g8", ("B11",), dummy_method(["x"]))
    before = reg.select_method(gdef, ("B11",)).signature
    reg.define_method("g8", ("A11",), dummy_method(["x"]))  # strictly worse
    assert reg.select_method(gdef, ("B11",)).signature == before


# -- evaluation-level dispatch -----------------------------------------------------

SHAPES = """
setClass("Shape", slots = list())
setClass("Circle", slots = list(r = "numeric"), contains = "Shape")
setClass("Square", slots = list(s = "numeric"), contains = "Shape")
setGeneric("area", function(shape) standardGeneric("area"))
setMethod("area", c("Circle"), function(shape) slot(shape, "r") * 2)
setMethod("area", c("Square"), function(shape) slot(shape, "s") * slot(shape, "s"))
"""


def test_call_generic_per_instance(interp):
    run(interp, SHAPES)
    assert run(interp, 'area(new("Circle", r = 5))').payload == [10]
    assert run(interp, 'area(new("Square", s = 3))').payload == [9]


def test_generic_call_builds_no_closure(interp, monkeypatch):
    """The closure a call's arguments are matched into is built once, by
    setGeneric, not again on every call."""
    run(interp, 'setGeneric("once", function(x) standardGeneric("once"))')
    run(interp, 'setMethod("once", "numeric", function(x) x)')
    built = []

    class CountingClosure(values.Closure):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(values, "Closure", CountingClosure)
    for i in range(10):
        assert run(interp, f"once({i})").payload == [i]
    assert built == []


def test_generic_signature_subset_and_lazy_nondispatch_arg(interp):
    run(interp, SHAPES)
    run(
        interp,
        'setGeneric("scaled", function(shape, by) standardGeneric("scaled"), '
        'signature = c("shape"))',
    )
    run(interp, 'setMethod("scaled", c("Shape"), function(shape, by) "ignored-by")')
    assert run(interp, 'scaled(new("Circle", r = 1), stop("never forced"))').payload == [
        "ignored-by"
    ]


def test_dispatch_on_defaulted_argument(interp):
    run(interp, 'setGeneric("hdef", function(x = 5) standardGeneric("hdef"))')
    run(interp, 'setMethod("hdef", c("numeric"), function(x = 5) x * 2)')
    assert run(interp, "hdef()").payload == [10]


def test_unforced_generic_default_runs_in_the_method_frame(interp):
    run(interp, 'setGeneric("gk", function(x, n = k) standardGeneric("gk"), signature = "x")')
    run(interp, 'setMethod("gk", c("numeric"), function(x, n = k) { k <- 10; x + n })')
    assert run(interp, "k <- 1; gk(1)").payload == [11]


def test_two_argument_dispatch_per_argument(interp):
    run(
        interp,
        """
setClass("N1", slots = list())
setClass("N2", slots = list(), contains = "N1")
setGeneric("mix", function(a, b) standardGeneric("mix"))
setMethod("mix", c("N1", "N2"), function(a, b) "n1n2")
setMethod("mix", c("N2", "N1"), function(a, b) "n2n1")
""",
    )
    assert run(interp, 'mix(new("N2"), new("N1"))').payload == ["n2n1"]
    assert run(interp, 'mix(new("N1"), new("N2"))').payload == ["n1n2"]


def test_dispatch_across_virtual_intermediate(interp):
    run(
        interp,
        """
setClass("Top2", slots = list())
setClass("Mid2", slots = list(), contains = "Top2", virtual = TRUE)
setClass("Leaf2", slots = list(), contains = "Mid2")
setGeneric("f2", function(x) standardGeneric("f2"))
setMethod("f2", c("Top2"), function(x) "top")
""",
    )
    assert run(interp, 'f2(new("Leaf2"))').payload == ["top"]


def test_s3_fallback_as_default_method(interp):
    run(interp, SHAPES)
    run(interp, 'summarize <- function(x) UseMethod("summarize")')
    run(interp, 'summarize.mine <- function(x) "s3 method"')
    run(interp, 'setGeneric("summarize")')
    run(interp, 'setMethod("summarize", c("Circle"), function(x) "s4 circle")')
    assert run(interp, 'summarize(new("Circle", r = 1))').payload == ["s4 circle"]
    run(interp, 'obj <- set_attr(1, "class", c("mine"))')
    assert run(interp, "summarize(obj)").payload == ["s3 method"]


def test_reflective_returns_inspectable(interp):
    v = run(interp, 'cd <- setClass("Refl", slots = list(x = "numeric")); cd$name')
    assert v.payload == ["Refl"]
    assert run(interp, 'names(cd$slots)').payload == ["x"]
    run(interp, 'gd <- setGeneric("reflg", function(a, b) standardGeneric("reflg"))')
    assert run(interp, "gd$signature").payload == ["a", "b"]
    run(interp, 'md <- setMethod("reflg", c("ANY", "ANY"), function(a, b) a)')
    assert run(interp, "md$generic").payload == ["reflg"]
    assert run(interp, "md$signature").payload == ["ANY", "ANY"]


def test_method_formals_must_match_generic(interp):
    run(interp, 'setGeneric("gm", function(a) standardGeneric("gm"))')
    with pytest.raises(MlsError, match="must match the generic"):
        run(interp, 'setMethod("gm", c("ANY"), function(z) z)')


def test_standard_generic_outside_dispatch_errors(interp):
    with pytest.raises(MlsError, match="standardGeneric"):
        run(interp, 'standardGeneric("oops")')


# -- randomized agreement with the brute-force oracle ---------------------------------

def run_oracle_case(rnd, case):
    reg = s4.Registry()
    n_classes = rnd.randint(1, 6)
    names = [f"K{case}_{i}" for i in range(n_classes)]
    graph = {}
    for i, name in enumerate(names):
        pool = names[:i]
        parents = rnd.sample(pool, min(len(pool), rnd.randint(0, 2)))
        graph[name] = parents
        reg.define_class(name, {}, parents)
    n_args = rnd.randint(1, 3)
    formals = [(f"a{j}", None) for j in range(n_args)]
    gdef = reg.define_generic(f"g{case}", formals)
    methods = {}
    for _ in range(rnd.randint(1, 8)):
        sig = tuple(rnd.choice(names + ["ANY"]) for _ in range(n_args))
        methods[sig] = True
        reg.define_method(f"g{case}", sig, dummy_method([f"a{j}" for j in range(n_args)]))
    actual_pool = names + ([f"UNREG{case}"] if rnd.random() < 0.2 else [])
    actuals = tuple(rnd.choice(actual_pool) for _ in range(n_args))
    expected = s4_select(graph, list(methods), actuals)
    try:
        got = reg.select_method(gdef, actuals).signature
    except MlsError as err:
        got = "AMBIGUOUS" if "ambiguous" in err.message else "NONE"
    assert got == expected, (graph, sorted(methods), actuals)


def test_selection_matches_bfs_oracle():
    rnd = random.Random(4242)
    for case in range(120):
        run_oracle_case(rnd, case)


# -- sequences of definitions and redefinitions against the oracle -------------------

_NAMES = ["A", "B", "C", "D", "numeric"]
_definitions = st.lists(
    st.tuples(
        st.sampled_from(["s4", "ref"]),
        st.sampled_from(_NAMES),
        st.lists(st.sampled_from(_NAMES), max_size=2, unique=True),
        st.lists(st.sampled_from(["x", "y", "z"]), max_size=2, unique=True),
        st.lists(st.sampled_from(["m", "x"]), max_size=1),
    ),
    min_size=1,
    max_size=12,
)
_signatures = st.lists(st.tuples(*[st.sampled_from(_NAMES[:4] + ["ANY"])] * 2), max_size=6)
_VERDICT_PREFIXES = {
    "basic": "cannot redefine basic class",
    "undefined": "undefined superclass",
    "cycle": "inheritance cycle",
}


def _definition_source(kind, name, contains, members, methods):
    declared = ", ".join(f'{m} = "numeric"' for m in members)
    if kind == "s4":
        sups = ", ".join(f'"{c}"' for c in contains)
        return f'setClass("{name}", slots = list({declared}), contains = c({sups}))'
    fns = ", ".join(f"{m} = function() 1" for m in methods)
    sup = f'"{contains[0]}"' if contains else "NULL"
    return (
        f'setRefClass("{name}", fields = list({declared}), methods = list({fns}), '
        f"contains = {sup})"
    )


def _check_against_graph(reg, model, signatures):
    graph = {name: entry[1] for name, entry in model.items()}
    for frm in model:
        for to in list(model) + ["ANY"]:
            assert reg.distance(frm, to) == bfs_distance(graph, frm, to), (frm, to)
        kind = model[frm][0]
        ancestors = [a for a in graph if bfs_distance(graph, frm, a) is not None]
        merged = {m for a in ancestors if model[a][0] == kind for m in model[a][2]}
        lin = reg.lineage(frm)
        assert set(lin.fields if kind == "ref" else lin.slots) == merged, frm
    gdef = s4.GenericDef("g", [("x", None), ("y", None)], ("x", "y"))
    for sig in signatures:
        if all(c == "ANY" or c in model for c in sig):
            gdef.methods[sig] = s4.MethodDef(sig, dummy_method(["x", "y"]))
    actual_pool = [name for name, entry in model.items() if entry[0] != "basic"] + ["integer"]
    for actuals in itertools.product(actual_pool, repeat=2):
        expected = s4_select(graph, list(gdef.methods), actuals)
        try:
            got = reg.select_method(gdef, actuals).signature
        except MlsError as err:
            got = "AMBIGUOUS" if "ambiguous" in err.message else "NONE"
        assert got == expected, (actuals, sorted(gdef.methods))


@settings(max_examples=150, deadline=None)
@given(_definitions, _signatures)
def test_redefinitions_match_bfs_on_the_current_graph(steps, signatures):
    """After every setClass or setRefClass, distances, merged members and
    selected methods equal brute force on the current graph; a rejected
    definition leaves every class as it was."""
    interp = Interpreter()
    reg = interp.s4
    model = {name: ("basic", list(c.contains), [], []) for name, c in reg.classes.items()}
    for kind, name, contains, members, methods in steps:
        if kind == "s4":
            methods = []
        else:
            contains = contains[:1]
        expected = definition_verdict(model, name, kind, contains, members, methods)
        before = dict(reg.classes)
        src = _definition_source(kind, name, contains, members, methods)
        try:
            interp.eval_source(src)
        except MlsError as err:
            got = next(
                (v for v, prefix in _VERDICT_PREFIXES.items() if err.message.startswith(prefix)),
                "clash",
            )
            assert got == expected, (src, err.message)
            assert list(reg.classes) == list(before)
            assert all(reg.classes[c] is before[c] for c in before)
        else:
            assert expected is None, src
            model[name] = (kind, list(contains), list(members), list(methods))
        _check_against_graph(reg, model, signatures)
