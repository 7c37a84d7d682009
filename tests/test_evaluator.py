import ast
import io
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PureProgramGenerator,
    frame_matches_snapshot,
    lookup_entry,
    no_host_recursion,
    snapshot_frame,
)
import mls
from mls import environment, interpreter, reader, syntax, values
from mls.environment import Binding, Environment, Promise
from mls.interpreter import Interpreter
from mls.values import MlsError

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def run(interp, src):
    return interp.eval_source(src)


def printed(exprs, setup=""):
    """What `run_top_level` prints for `exprs` in a fresh interpreter."""
    out = io.StringIO()
    interp = Interpreter(stdout=out)
    interp.eval_source(setup)
    interp.run_top_level(exprs)
    return out.getvalue()


# -- arithmetic and coercion ---------------------------------------------------

def test_basic_arithmetic(interp):
    assert run(interp, "1 + 2").payload == [3]
    assert run(interp, "1 + 2").kind == values.INTEGER
    assert run(interp, "2 * 3.5").payload == [7.0]
    assert run(interp, "2 * 3.5").kind == values.DOUBLE
    assert run(interp, "7 / 2").payload == [3.5]
    assert run(interp, "7 / 2").kind == values.DOUBLE
    assert run(interp, "TRUE + TRUE").payload == [2]
    assert run(interp, "TRUE + TRUE").kind == values.INTEGER
    assert printed(reader.parse_program("2 * 3\n2 * 0.5")) == "[1] 6\n[1] 1\n"
    assert run(interp, "2 * 3").kind == values.INTEGER
    v = run(interp, "2 * 0.5")
    assert (v.kind, type(v.payload[0])) == (values.DOUBLE, float)
    v = run(interp, "1 < 2.5")
    assert (v.kind, v.payload, type(v.payload[0])) == (values.LOGICAL, [True], bool)


def test_vector_recycling(interp):
    assert run(interp, "c(1, 2, 3) + 10").payload == [11, 12, 13]
    assert run(interp, "c(1, 2) * c(3, 4)").payload == [3, 8]
    with pytest.raises(MlsError, match="lengths do not match"):
        run(interp, "c(1, 2) + c(1, 2, 3)")


def test_empty_vector_propagates(interp):
    v = run(interp, "rng_draw(0) < 0.5")
    assert v.kind == values.LOGICAL and v.payload == []
    assert run(interp, "sum(rng_draw(0) < 0.5)").payload == [0]


def test_division_by_zero_gives_infinities(interp):
    assert run(interp, "1 / 0").payload[0] == float("inf")
    assert run(interp, "-1 / 0").payload[0] == float("-inf")
    out = run(interp, "0 / 0").payload[0]
    assert out != out  # NaN


def test_string_arithmetic_rejected(interp):
    with pytest.raises(MlsError, match="non-numeric"):
        run(interp, '"a" + 1')


def test_comparisons(interp):
    assert run(interp, "c(1, 5, 3) < 4").payload == [True, False, True]
    assert run(interp, '"apple" < "banana"').payload == [True]
    with pytest.raises(MlsError, match="compatible types"):
        run(interp, '"a" < 1')


def test_short_circuit(interp):
    assert run(interp, "FALSE && stop()").payload == [False]
    assert run(interp, "TRUE || stop()").payload == [True]
    assert run(interp, 'FALSE && stop("no")').payload == [False]
    assert run(interp, 'TRUE || stop("no")').payload == [True]
    assert run(interp, "TRUE && FALSE").payload == [False]


def _names(interp, src):
    v = run(interp, f"names({src})")
    return None if v.kind == values.NULL else v.payload


@pytest.mark.parametrize(
    "src, names",
    [
        ("c(a = 1, 2)", ["a", ""]),
        ("c(a = c(1, 2))", ["a1", "a2"]),
        ("c(a = c(p = 1, 2), 3)", ["p", "a2", ""]),
        ("c(x = c(p = 1))", ["p"]),
        ("c(c(p = 1), b = 2)", ["p", "b"]),
        ("c(1, c(2, 3))", None),
        ('c(set_attr(c(a = 1), "names", NULL), 2)', None),
        ("c(a = list(1, 2), 3)", ["a1", "a2", ""]),
        ("c(list(p = 1, 2), b = c(3, 4))", ["p", "", "b1", "b2"]),
        ("c(f = function(x) x, list(1))", ["f", ""]),
        ("c(list(1), NULL, e = globalenv())", ["", "e"]),
        ("c(list(1), 2)", None),
        ("c(list(1), c(a = 2, b = 3))", ["", "a", "b"]),
        ("c(list(p = 1), x = c(a = 2, 3))", ["p", "a", "x2"]),
    ],
)
def test_concat_names(interp, src, names):
    assert _names(interp, src) == names


def test_concat_with_a_list_part_gives_a_list(interp):
    v = run(interp, "f <- function(x) x\nc(list(1, list(2)), f, c(3, 4), globalenv())")
    kinds = [x.kind for x in v.payload]
    assert v.kind == values.LIST
    assert kinds == [values.INTEGER, values.LIST, values.CLOSURE, values.INTEGER, values.INTEGER,
                     values.ENVIRONMENT]
    assert v.payload[2] is run(interp, "f")
    assert [x.payload for x in v.payload[3:5]] == [[3], [4]]


def test_concat_coercion(interp):
    v = run(interp, "c(TRUE, 2)")
    assert (v.kind, v.payload) == (values.INTEGER, [1, 2])
    v = run(interp, "c(TRUE, 2, 1.5)")
    assert (v.kind, v.payload) == (values.DOUBLE, [1.0, 2.0, 1.5])
    assert all(type(x) is float for x in v.payload)
    v = run(interp, 'c(1, "a", TRUE, 0.1, 1e-20, 1/0)')
    assert (v.kind, v.payload) == (values.STRING, ["1", "a", "TRUE", "0.1", "1e-20", "Inf"])
    assert run(interp, "c()").kind == values.NULL
    assert run(interp, "c(NULL, NULL)").kind == values.NULL
    v = run(interp, "c(NULL, a = NULL, 2)")
    assert (v.kind, v.payload, v.attributes) == (values.INTEGER, [2], {})


_ATOMS = st.sampled_from(["0", "7", "TRUE", "FALSE", '"s"', '"t u"'])
_PART_NAMES = st.sampled_from(["", "", "a", "xy"])
_INNER_NAMES = st.sampled_from(["", "", "p"])
_CONCAT_PARTS = st.lists(
    st.tuples(
        _PART_NAMES,
        st.one_of(
            st.just(None),  # NULL
            st.lists(st.tuples(_INNER_NAMES, _ATOMS), min_size=1, max_size=3),
        ),
    ),
    max_size=4,
)


def _atom_kind(atom):
    return "string" if atom.startswith('"') else "logical" if atom in ("TRUE", "FALSE") else "int"


def _part_source(elements):
    if len(elements) == 1 and not elements[0][0]:
        return elements[0][1]
    return "c(" + ", ".join(f"{n} = {a}" if n else a for n, a in elements) + ")"


def _expected_concat_output(parts):
    """The printed c(...) and names(c(...)) by R's rule, computed without mls."""
    parts = [(outer, elements) for outer, elements in parts if elements is not None]
    if not parts:
        return "NULL\nNULL\n"

    def coerce(atoms):  # logical < integer < character, as deparsed atoms
        kinds = {_atom_kind(a) for a in atoms}
        if "string" in kinds:
            return ['"' + a.strip('"') + '"' for a in atoms]
        if "int" in kinds:
            return [{"TRUE": "1", "FALSE": "0"}.get(a, a) for a in atoms]
        return atoms

    # each part is built by its own c() first, then the parts are combined
    shown = coerce([a for _, elements in parts for a in coerce([a for _, a in elements])])
    names = []
    for outer, elements in parts:
        for i, (inner, _) in enumerate(elements):
            if inner:
                names.append(inner)
            elif outer:
                names.append(outer if len(elements) == 1 else f"{outer}{i + 1}")
            else:
                names.append("")
    names_line = "[1] " + " ".join(f'"{n}"' for n in names) if any(names) else "NULL"
    return f"[1] {' '.join(shown)}\n{names_line}\n"


@settings(max_examples=150, deadline=None)
@given(_CONCAT_PARTS)
def test_concat_matches_reference_naming_rule(parts):
    args = ", ".join(
        (f"{outer} = " if outer else "") + ("NULL" if elements is None else _part_source(elements))
        for outer, elements in parts
    )
    src = f"x <- c({args})\nprint(x)\nprint(names(x))"
    assert printed(reader.parse_program(src)) == _expected_concat_output(parts)


def test_every_node_class_has_a_compiler():
    assert set(interpreter._COMPILERS) == set(syntax._LAYOUT)


# -- environments and assignment -------------------------------------------------

def test_local_assignment_does_not_leak(interp):
    run(interp, "x <- 10; f <- function() { x <- 99; x }; f()")
    assert run(interp, "x").payload == [10]


def test_copy_on_modify_for_arguments(interp):
    run(interp, "f <- function(x) { x[1] <- 99; x }; y <- c(1, 2, 3); out <- f(y)")
    assert run(interp, "y").payload == [1, 2, 3]
    assert run(interp, "out").payload == [99, 2, 3]


def test_superassign_counter(interp):
    run(interp, "make <- function() { n <- 0; function() { n <<- n + 1; n } }; inc <- make()")
    assert run(interp, "inc()").payload == [1]
    assert run(interp, "inc()").payload == [2]
    assert run(interp, "inc()").payload == [3]


def test_superassign_falls_back_to_global(interp):
    run(interp, "f <- function() { brand_new <<- 42 }; f()")
    assert run(interp, "brand_new").payload == [42]


def test_superassign_at_top_level_targets_global(interp):
    run(interp, "tl <- 1; tl <<- 2")
    assert run(interp, "tl").payload == [2]


def test_rebinding_last_wins(interp):
    assert run(interp, "x <- 1; x <- 2; x").payload == [2]


def test_unbound_symbol_reports_location(interp):
    with pytest.raises(MlsError) as exc:
        run(interp, "1 + nope")
    assert "object 'nope' not found" in exc.value.message
    assert exc.value.loc == (1, 5)
    with pytest.raises(MlsError) as exc:
        run(interp, "length(\n  nope)")
    assert exc.value.message == "object 'nope' not found"
    assert exc.value.loc == (2, 3)


def test_environment_values_alias(interp):
    run(interp, "e <- environment(); e$stash <- 7")
    assert run(interp, "stash").payload == [7]
    run(interp, "e2 <- e; e2$stash <- 8")
    assert run(interp, "stash").payload == [8]
    assert run(interp, "e$stash").payload == [8]
    assert run(interp, "e$absent").kind == values.NULL


@pytest.mark.parametrize(
    "src, message",
    [
        ('setClass("Pt", slots = list(x = "numeric")); new("Pt", x = 1)$x',
         '\'$\' is not valid for an object of class "Pt"; use slot()'),
        ("x <- 2.5; x$a", "'$' is not valid for an object of class 'numeric'"),
    ],
)
def test_dollar_read_on_a_value_without_fields_is_an_error(interp, src, message):
    with pytest.raises(MlsError) as err:
        run(interp, src)
    assert err.value.message == message


def test_deep_copied_environment_still_aliases(interp):
    run(interp, "e <- globalenv(); e2 <- copy(e); e2$k <- 5")
    assert run(interp, "k").payload == [5]


def test_assign_builtin(interp):
    run(interp, "f <- function() { assign('local_only', 1); local_only }")
    assert run(interp, "f()").payload == [1]
    with pytest.raises(MlsError, match="not found"):
        run(interp, "local_only")
    run(interp, "g <- function() assign('seen', 2, globalenv()); g()")
    assert run(interp, "seen").payload == [2]


# -- argument matching -------------------------------------------------------------

def test_default_evaluates_in_call_env(interp):
    assert run(interp, "f <- function(x, y = x * 2) y; f(3)").payload == [6]


def test_exact_name_then_position(interp):
    assert run(interp, "f <- function(x, y) x - y; f(y = 5, 4)").payload == [-1]


def test_unused_argument_errors(interp):
    with pytest.raises(MlsError, match="unused argument 'z'"):
        run(interp, "f <- function(x) x; f(z = 1)")
    with pytest.raises(MlsError, match="unused argument"):
        run(interp, "f <- function(x) x; f(1, 2)")


def test_matched_by_multiple_errors(interp):
    with pytest.raises(MlsError, match="matched by multiple"):
        run(interp, "f <- function(x) x; f(x = 1, x = 2)")


def test_missing_argument_errors_on_force(interp):
    run(interp, "f <- function(a, b) a")
    assert run(interp, "f(1)").payload == [1]
    with pytest.raises(MlsError, match="argument 'b' is missing, with no default"):
        run(interp, "g <- function(a, b) b; g(1)")


def test_default_cycle_detected(interp):
    with pytest.raises(MlsError, match="cycle"):
        run(interp, "f <- function(a = b, b = a) a; f()")


@pytest.mark.parametrize(
    "src, message",
    [
        ("length(1, 2)", "unused arguments for 'length'"),
        ("length(y = 1)", "unused argument 'y'"),
        ("length(x = 1, x = 2)", "formal argument 'x' matched by multiple arguments"),
        ("el(1)", "argument 'i' is missing, with no default"),
    ],
)
def test_builtin_argument_matching_errors(interp, src, message):
    with pytest.raises(MlsError) as exc:
        run(interp, src)
    assert exc.value.message == message


# -- laziness ------------------------------------------------------------------

def test_unforced_error_argument_is_harmless(interp):
    assert run(interp, 'g <- function(a, b) a; g(1, stop("boom"))').payload == [1]


def test_defaults_are_lazy(interp):
    assert run(interp, 'f <- function(a, b = stop("no")) a; f(5)').payload == [5]


def test_promise_memoization(interp):
    ticks = []
    interp.register_foreign("tick", lambda i, args: (ticks.append(1), values.scalar_int(len(ticks)))[1])
    run(interp, 'h <- function(p, q) { u <- p; v <- p; u + v }; out <- h(foreign("tick"), 0)')
    assert len(ticks) == 1
    assert run(interp, "out").payload == [2]


def test_unforced_side_effect_never_runs(interp):
    ticks = []
    interp.register_foreign("tick", lambda i, args: (ticks.append(1), values.scalar_int(1))[1])
    run(interp, 'h <- function(p, q) q; h(foreign("tick"), 7)')
    assert ticks == []


def test_builtin_arguments_run_in_call_order_in_caller_env(capture):
    capture.run_top_level(reader.parse_program("f <- function() { c(x <- 1, x <- 2); x }; f()"))
    assert capture.out.getvalue() == "[1] 2\n"
    assert lookup_entry(capture.global_env, "x") is None


def test_builtin_name_rebound_to_closure_is_lazy(capture):
    capture.run_top_level(
        reader.parse_program('length <- function(x) 99; length(stop("never"))')
    )
    assert capture.out.getvalue() == "[1] 99\n"


# -- interpreter state builtins ------------------------------------------------------

def test_options_roundtrip(interp):
    run(interp, 'options("tol", 1e-8)')
    assert run(interp, 'get_option("tol")').payload == [1e-8]
    assert run(interp, 'get_option("unset")').kind == values.NULL


def test_get_option_from(interp):
    assert run(interp, 'get_option_from(list(tol = 2), "tol")').payload == [2]
    assert run(interp, 'get_option_from(list(), "tol")').kind == values.NULL


def test_foreign_stub_and_unknown_tag(interp):
    assert run(interp, 'foreign("identity", 42)').payload == [42]
    with pytest.raises(MlsError, match="unknown foreign tag 'nope'"):
        run(interp, 'foreign("nope")')


def test_stop_carries_message_and_location(interp):
    with pytest.raises(MlsError) as exc:
        run(interp, 'f <- function() stop("bad thing")\nf()')
    assert exc.value.message == "bad thing"
    assert exc.value.loc is not None


# -- indexing -------------------------------------------------------------------

def test_indexing_variants(interp):
    assert run(interp, "x <- c(10, 20, 30); x[2]").payload == [20]
    assert run(interp, "x[c(1, 3)]").payload == [10, 30]
    assert run(interp, "x[x > 15]").payload == [20, 30]
    assert run(interp, 'y <- c(a = 1, b = 2); y["b"]').payload == [2]


def test_indexing_errors(interp):
    run(interp, "x <- c(1, 2)")
    with pytest.raises(MlsError, match="out of bounds"):
        run(interp, "x[3]")
    with pytest.raises(MlsError, match="invalid index"):
        run(interp, "x[0]")
    with pytest.raises(MlsError, match="not subsettable"):
        run(interp, "f <- function() 1; f[1]")


@pytest.mark.parametrize("kind", ["c", "list"])
@pytest.mark.parametrize("index, shown", [("1/0", "Inf"), ("-1/0", "-Inf")])
@pytest.mark.parametrize("assign", [False, True], ids=["read", "assign"])
def test_an_infinite_index_is_an_error_where_nan_is(kind, index, shown, assign):
    def error(index):
        source = f"x <- {kind}(1, 2)\nx[{index}]" + (" <- 3" if assign else "")
        with pytest.raises(MlsError) as exc:
            Interpreter().eval_source(source)
        return exc.value.message, exc.value.loc

    message, loc = error(index)
    assert message == f"invalid index {shown}"
    assert error("0/0") == ("invalid index NaN", loc)


@pytest.mark.parametrize("kind", ["c", "list"])
@pytest.mark.parametrize("index, message", [
    ("1e308", "index 1e+308 out of bounds (length 2)"),
    ("1e15", "index 1000000000000000 out of bounds (length 2)"),
    ("-1e16", "invalid index -1e+16"),
    ("3.0", "index 3 out of bounds (length 2)"),
    ("3", "index 3 out of bounds (length 2)"),
    ("0", "invalid index 0"),
])
@pytest.mark.parametrize("assign", [False, True], ids=["read", "assign"])
def test_an_index_out_of_range_is_shown_as_printed(kind, index, message, assign):
    source = f"x <- {kind}(1, 2)\nx[{index}]" + (" <- 3" if assign else "")
    with pytest.raises(MlsError) as exc:
        Interpreter().eval_source(source)
    assert exc.value.message == message


def test_sum_of_doubles_overflows_to_inf_and_cancels_to_nan(interp):
    assert math.isnan(run(interp, "sum(c(1/0, -1/0))").payload[0])
    assert run(interp, "sum(c(1e308, 1e308))").payload == [math.inf]
    assert run(interp, "sum(c(-1e308, -1e308))").payload == [-math.inf]
    # an exact sum wherever one exists: left to right this is 0.6000000000000001
    assert run(interp, "sum(c(0.1, 0.2, 0.3))").payload == [0.6]


def test_index_assign_promotes(interp):
    v = run(interp, "x <- c(1, 2, 3); x[2] <- 0.5; x")
    assert v.kind == values.DOUBLE
    assert v.payload == [1.0, 0.5, 3.0]


def test_list_field_access_and_update(interp):
    assert run(interp, "m <- list(a = 1, b = 2); m$a").payload == [1]
    assert run(interp, "m$missing").kind == values.NULL
    run(interp, "m$c <- 3")
    assert run(interp, "names(m)").payload == ["a", "b", "c"]
    run(interp, "m$a <- NULL")
    assert run(interp, "names(m)").payload == ["b", "c"]


def test_el_extracts_list_element(interp):
    assert run(interp, "el(list(5, 6), 2)").payload == [6]


# -- control flow -----------------------------------------------------------------

def test_if_without_else_yields_null(interp):
    assert run(interp, "if (FALSE) 1").kind == values.NULL


def test_while_loop(interp):
    assert run(interp, "i <- 0; s <- 0; while (i < 5) { i <- i + 1; s <- s + i }; s").payload == [15]


def test_condition_errors(interp):
    with pytest.raises(MlsError, match="length zero"):
        run(interp, "if (c()) 1")
    with pytest.raises(MlsError, match="interpretable as logical"):
        run(interp, 'if ("x") 1')


# -- visibility --------------------------------------------------------------------

def test_top_level_visibility(capture):
    from mls import reader

    capture.run_top_level(reader.parse_program("x <- 5\nx\ninvisible(9)\nx + 1"))
    assert capture.out.getvalue() == "[1] 5\n[1] 6\n"


def test_function_value_from_assignment_is_invisible(capture):
    from mls import reader

    capture.run_top_level(reader.parse_program("f <- function() { y <- 1 }\nf()"))
    assert capture.out.getvalue() == ""


# -- operator call sites -------------------------------------------------------------

def outcome(src, walk=False):
    """Stdout, stderr and the error (message, location) of running `src`
    at top level in a fresh interpreter.  With `walk`, every base name
    starts out marked as shadowed, so each call resolves its function by
    walking the frames and each operator site takes the general call."""
    out, err = io.StringIO(), io.StringIO()
    interp = Interpreter(stdout=out, stderr=err)
    if walk:
        interp.shadowed.update(interp.base_names)
    try:
        interp.run_top_level(reader.parse_program(src))
        error = None
    except MlsError as exc:
        error = (exc.message, exc.loc)
    return out.getvalue(), err.getvalue(), error


@pytest.mark.parametrize(
    "src, expected",
    [
        ("f <- function() { `+` <- function(a, b) 99; 1 + 2 }\nf()", ("[1] 99\n", "", None)),
        ("`+` <- function(a, b) 99\n1 + 2\ng <- function(x) x + 1\ng(5)",
         ("[1] 99\n[1] 99\n", "", None)),
        ("h <- function(`-`) 5 - 2\nh(function(a, b) 7)", ("[1] 7\n", "", None)),
        ("k <- function() { `<` <- 3; 1 < 2 }\nk()", ("[1] TRUE\n", "", None)),
        ("`+`(e1 = 1, 2)\n`-`(3)", ("[1] 3\n[1] -3\n", "", None)),
        ("`*`(1, 2, 3)", ("", "", ("operator '*' takes two arguments", (1, 1)))),
        # the callee is resolved before the operands
        ("{ `+` <- function(a, b) 99; 1 } + 2\n1 + 2", ("[1] 3\n[1] 99\n", "", None)),
        ('setGeneric("+", function(e1, e2) standardGeneric("+"))\n'
         'setMethod("+", c("numeric", "numeric"), function(e1, e2) 42)\n1 + 2',
         ("[1] 42\n", "", None)),
        ("invisible(1) + 1\nf <- function() invisible(3)\nf() * 2", ("[1] 2\n[1] 6\n", "", None)),
        ('1 + "a"', ("", "", ("non-numeric argument to binary operator '+'", (1, 1)))),
        ('x <- 1\nx - stop("boom")', ("", "", ("boom", (2, 5)))),
        ("f <- function() 1 + nope\nf()", ("", "", ("object 'nope' not found", (1, 21)))),
        ('`/` <- function(a, b) stop("nope")\n4 / 2', ("", "", ("nope", (1, 23)))),
        ('`+.m` <- function(e1, e2) "m"\n`+.n` <- function(e1, e2) "n"\n'
         'a <- set_attr(1, "class", "m")\nb <- set_attr(2, "class", "n")\n'
         "a + b\na + 1\n1 + b",
         ('[1] "m"\n[1] "m"\n[1] "n"\n',
          'warning: incompatible methods ("+.m", "+.n") for "+"\n', None)),
        ('`==.m` <- function(e1, e2) invisible("eq")\na <- set_attr(1, "class", "m")\na == a',
         ('[1] "eq"\n', "", None)),
    ],
)
def test_operator_call_sites_keep_call_semantics(src, expected):
    assert outcome(src) == expected


def test_operator_call_site_guards_on_the_base_builtin_value(capture):
    """A call site applies `+` directly while no frame has bound `+`, even
    when the base builtin's `fn` is wrapped (as a tracer does); a named
    argument or a rebinding reaches the builtin's `fn` through the
    general call."""
    payload = capture.base_env.frame["+"].value.payload
    calls = []
    inner = payload.fn
    payload.fn = lambda ctx, args: calls.append(1) or inner(ctx, args)
    capture.run_top_level(reader.parse_program("1 + 2\n`+`(e1 = 1, 2)\nf <- `+`\nf(3, 4)"))
    assert capture.out.getvalue() == "[1] 3\n[1] 3\n[1] 7\n"
    assert len(calls) == 2


_OPERATORS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=")
_FUNCTIONS = ("c", "length", "el", "paste", "print", "UseMethod", "copy")

# Each way a frame can come to bind a base name; `{use}` calls a base
# function inside the binding's scope.
_WRITE_FORMS = (
    "`{name}` <- {value}\n{use}",
    "f <- function() {{ `{name}` <- {value}; {use} }}\nf()",
    "f <- function() {{ `{name}` <<- {value}; {use} }}\nf()",
    "`{name}` <<- {value}\n{use}",  # at top level this rebinds the base function
    'assign("{name}", {value})\n{use}',
    'f <- function() {{ assign("{name}", {value}, envir = environment()); {use} }}\nf()',
    "f <- function() {{ e <- environment(); e$`{name}` <- {value}; {use} }}\nf()",
    "f <- function(`{name}` = {value}) {use}\nf()",
    "f <- function(`{name}`) {use}\nf({value})",
    'setGeneric("{name}", function(e1, e2) standardGeneric("{name}"))\n'
    'setMethod("{name}", c("numeric", "numeric"), function(e1, e2) 42)\n{use}',
    'R <- setRefClass("R", fields = list(`{name}` = "ANY"), '
    "methods = list(run = function() {use}))\nR$new(`{name}` = {value})$run()",
    'R <- setRefClass("R", methods = list(`{name}` = {value}, run = function() {use}))\n'
    "R$new()$run()",
)
_SHADOW_VALUES = ("function(e1, e2) 99", 'function(e1, e2) stop("shadow")', "3",
                  "function(e1) 1", 'function(e1, e2) invisible("inv")')
# A call of each base function on two operands `{0}` and `{1}`; `gen`
# is an S3 generic whose own frame resolves `UseMethod`.
_FUNCTION_USES = {
    "c": "c({0}, {1})",
    "length": "length(list({0}, {1}))",
    "el": "el(list({0}, {1}), 2)",
    "paste": "paste({0}, {1})",
    "print": "print({0})",
    "UseMethod": '(function(x, y) UseMethod("gen"))({0}, {1})',
    "copy": "copy(c({0}, {1}))",
}
_GENERIC = 'gen.default <- function(x, y) paste("gen", x)\n'


@st.composite
def _base_use(draw, name):
    lhs, rhs = draw(st.integers(-3, 3)), draw(st.sampled_from(["2", "0.5", "c(1, 2)", '"a"']))
    if name in _OPERATORS:
        call = f"{lhs} {name} {rhs}"
    else:
        call = _FUNCTION_USES[name].format(lhs, rhs)
    return draw(st.sampled_from(["print({})", "{}"])).format(call)


_BASE_NAMES = st.sampled_from(_OPERATORS + _FUNCTIONS)


@st.composite
def _shadowing_programs(draw):
    form = draw(st.sampled_from(_WRITE_FORMS))
    name = draw(_BASE_NAMES)
    inside = draw(_base_use(draw(st.sampled_from((name, draw(_BASE_NAMES))))))
    before, after = draw(_base_use(draw(_BASE_NAMES))), draw(_base_use(draw(_BASE_NAMES)))
    body = form.format(name=name, value=draw(st.sampled_from(_SHADOW_VALUES)), use=inside)
    return f"{_GENERIC}{before}\n{body}\n{after}\ng <- function(x) {after}\ng(1)"


# Shadowing base functions by a formal, a reference-class method, an S4
# generic and a top-level `<<-` that rebinds base's own binding.
_BASE_FUNCTION_CASES = {
    "f <- function(c) c(c, 1)\nf(2)\nh <- function(c) c(1)\nh(function(x) 7)\nc(3)":
        ("[1] 2 1\n[1] 7\n[1] 3\n", "", None),
    'R <- setRefClass("R", methods = list(copy = function() "mine", run = function() copy()))\n'
    "R$new()$run()\ncopy(1)":
        ('[1] "mine"\n[1] 1\n', "", None),
    'setGeneric("length", function(x) standardGeneric("length"))\n'
    'setMethod("length", "numeric", function(x) 42)\nlength(c(1, 2))\nlength(list(1))':
        ("[1] 42\n", "",
         ("unable to find an inherited method for function 'length' for signature (list)",
          (4, 1))),
    "c <<- 5\nc(1, 2)": ("", "", ("could not find function 'c'", (2, 1))),
}


@pytest.mark.parametrize("src", sorted(_BASE_FUNCTION_CASES))
def test_shadowing_a_base_function_keeps_call_semantics(src):
    assert outcome(src) == outcome(src, walk=True) == _BASE_FUNCTION_CASES[src]


@settings(max_examples=400, deadline=None)
@given(_shadowing_programs())
def test_shadowing_an_operator_matches_an_interpreter_that_always_walks(src):
    """Operators and base functions alike, under every write form."""
    assert outcome(src) == outcome(src, walk=True)


def test_a_formal_named_like_an_operator_is_still_forced():
    out, err, error = outcome('g <- function(`+` = stop("boom")) 1 + 2; g()')
    assert (out, err, error[0], error[1][0]) == ("", "", "boom", 1)


def test_one_parse_runs_in_interpreters_that_do_and_do_not_shadow_an_operator():
    exprs = reader.parse_program("f <- function(a, b) a + b\nf(1, 2)\n3 + 4")
    assert printed(exprs) == "[1] 3\n[1] 7\n"
    assert printed(exprs, "`+` <- function(e1, e2) 99") == "[1] 99\n[1] 99\n"
    assert printed(exprs) == "[1] 3\n[1] 7\n"


def test_one_parse_runs_in_interpreters_that_do_and_do_not_shadow_a_base_function():
    exprs = reader.parse_program("f <- function(a) length(c(a, a))\nf(1)\nc(3, 4)")
    assert printed(exprs) == "[1] 2\n[1] 3 4\n"
    assert printed(exprs, "c <- function(x, y) 99") == "[1] 1\n[1] 99\n"
    assert printed(exprs) == "[1] 2\n[1] 3 4\n"


def _writes_a_frame_directly(node) -> bool:
    """`x.frame[k] = ...` (or augmented) or `x.frame.update(...)`/`setdefault`."""
    def is_frame(e):
        return isinstance(e, ast.Attribute) and e.attr == "frame"

    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Subscript) and is_frame(t.value)
                   for target in targets for t in ast.walk(target))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("update", "setdefault") and is_frame(node.func.value))


def test_frames_are_written_only_through_environment_bind():
    """The base-name mark is sound only if every frame write but
    `builtins.install`'s goes through `Environment.bind`: an unmarked
    base name is found in base without walking the frames, and an
    unmarked operator is applied directly."""
    offenders = []
    for path in sorted(Path(mls.__file__).parent.glob("*.py")):
        if path.name == "environment.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        exempt = set()
        if path.name == "builtins.py":
            install = next(n for n in tree.body
                           if isinstance(n, ast.FunctionDef) and n.name == "install")
            exempt = {id(n) for n in ast.walk(install)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if id(node) not in exempt and _writes_a_frame_directly(node)]
    assert offenders == []
_CLASSED_SETUP = (
    '`+.m` <- function(e1, e2) "m plus"\n'
    '`+.k` <- function(e1, e2) "k plus"\n'
    '`<.m` <- function(e1, e2) c(lt = TRUE)\n'
    '`*.k` <- function(e1, e2) invisible(paste("k times", class(e2)))\n'
)


def _atoms(kind):
    return {
        "integer": st.integers(-20, 20).map(str),
        "double": st.integers(-400, 400).map(lambda k: repr(k / 8)),
        "string": st.sampled_from(['"a"', '"b"', '""']),
        "logical": st.sampled_from(["TRUE", "FALSE"]),
    }[kind]


@st.composite
def _operands(draw):
    kind = draw(st.sampled_from(["integer", "double", "string", "logical"]))
    atoms = draw(st.lists(_atoms(kind), min_size=1, max_size=3))
    shape = draw(st.sampled_from(["scalar", "vector", "named", "classed"]))
    if shape == "scalar":
        return atoms[0]
    if shape == "named":
        return "c(" + ", ".join(f"{n} = {a}" for n, a in zip("pqr", atoms)) + ")"
    vector = "c(" + ", ".join(atoms) + ")"
    if shape == "classed":
        cls = draw(st.sampled_from(['"m"', '"k"', 'c("z", "m")', '"z"']))
        return f"set_attr({vector}, \"class\", {cls})"
    return vector


@settings(max_examples=300, deadline=None)
@given(_operands(), st.sampled_from(_OPERATORS), _operands())
def test_direct_operator_path_matches_the_general_call(lhs, op, rhs):
    direct = outcome(f"{_CLASSED_SETUP}print({lhs} {op} {rhs})")
    general = outcome(f"{_CLASSED_SETUP}f <- `{op}`\nprint(f({lhs}, {rhs}))")
    assert direct[:2] == general[:2]
    assert (direct[2] is None) == (general[2] is None)
    if direct[2] is not None:
        assert direct[2][0] == general[2][0]


# -- miscellaneous semantics ------------------------------------------------------

def test_arithmetic_drops_attributes_except_names(interp):
    v = run(interp, 'x <- set_attr(c(a = 1, b = 2), "class", c("classy")); x + 1')
    assert "class" not in v.attributes
    assert v.attributes["names"].payload == ["a", "b"]
    v = run(interp, 'set_attr(1, "class", c("classy")) * 2')
    assert (v.kind, v.payload, v.attributes) == (values.INTEGER, [2], {})
    assert _names(interp, "c(a = 1) + 1") == ["a"]
    assert _names(interp, "1 - c(b = 2)") == ["b"]
    assert _names(interp, "c(a = 1) == 1") == ["a"]


def test_non_function_callee_errors(interp):
    with pytest.raises(MlsError, match="non-function"):
        run(interp, "(1)(2)")


def test_function_position_lookup_skips_data(interp):
    # a data binding named like a builtin does not shadow the function
    assert run(interp, "c <- 1; c(c, 2)").payload == [1, 2]


def test_independent_interpreters_share_nothing():
    from mls.interpreter import Interpreter

    a = Interpreter()
    b = Interpreter()
    a.eval_source("x <- 1")
    with pytest.raises(MlsError, match="not found"):
        b.eval_source("x")
    a.eval_source('options("tol", 1)')
    assert b.eval_source('get_option("tol")').kind == values.NULL


def test_a_print_redefined_in_one_interpreter_leaves_the_other_dispatching():
    # the prelude that defines `print` is parsed once for all interpreters
    a, b = Interpreter(stdout=io.StringIO()), Interpreter(stdout=io.StringIO())
    a.eval_source('print <- function(x) invisible("replaced")', a.base_env)
    exprs = reader.parse_program(
        'print.tag <- function(x) print("tagged")\nx <- set_attr(1, "class", "tag")\nprint(x)\nx'
    )
    for interp in (a, b):
        interp.run_top_level(exprs)
    assert a.stdout.getvalue() == ""
    assert b.stdout.getvalue() == '[1] "tagged"\n[1] "tagged"\n'
    assert printed(exprs) == b.stdout.getvalue()


def test_runaway_recursion_is_a_clean_error(interp):
    with pytest.raises(MlsError, match="nested too deeply"):
        run(interp, "f <- function() f(); f()")
    with pytest.raises(MlsError, match="nested too deeply"):
        run(interp, "g <- function() 1 + g(); g()")


def test_interpreters_raise_the_host_recursion_limit_only_while_running():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
    try:
        interp = Interpreter()
        assert sys.getrecursionlimit() == 1500
        exprs = reader.parse_program("f <- function(n) if (n == 0) 0 else 1 + f(n - 1)\nf(500)")
        assert sys.getrecursionlimit() == 1500
        assert interp.eval_program(exprs).payload == [500]
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(previous)


def test_deep_sums_and_deep_recursion_fit_the_host_stack(interp):
    assert run(interp, "x <- " + "+".join(["1"] * 4000)).payload == [4000]
    run(interp, "f <- function(n) if (n == 0) 0 else 1 + f(n - 1)")
    assert run(interp, "f(998)").payload == [998]  # 999 nested calls


def test_host_recursion_is_an_mls_error_in_every_entry_point(interp):
    deep = "x <- " + "+".join(["1"] * 8000)
    for entry in (
        interp.eval_source,
        lambda src: interp.eval_program(reader.parse_program(src)),
        lambda src: interp.run_top_level(reader.parse_program(src)),
    ):
        with no_host_recursion(), pytest.raises(
            MlsError, match="evaluation nested too deeply"
        ) as exc:
            entry("1\n" + deep)
        assert exc.value.loc == (2, 1)


def test_chained_assignment(interp):
    run(interp, "a <- b <- 2")
    assert run(interp, "a").payload == [2]
    assert run(interp, "b").payload == [2]


def test_index_assign_pulls_nonlocal_into_local_copy(interp):
    run(interp, "y <- c(1, 2, 3); f <- function() { y[1] <- 99; y }; out <- f()")
    assert run(interp, "out").payload == [99, 2, 3]
    assert run(interp, "y").payload == [1, 2, 3]


def test_default_may_reference_later_formal(interp):
    assert run(interp, "f <- function(a = b + 1, b) a; f(b = 10)").payload == [11]


def test_loop_and_bare_conditional_results_are_invisible(capture):
    from mls import reader

    capture.run_top_level(reader.parse_program("if (FALSE) 1\nwhile (FALSE) 1\nNULL"))
    assert capture.out.getvalue() == "NULL\n"


def test_evaluator_total_over_junk_programs(monkeypatch):
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from mls import reader
    from mls.interpreter import Interpreter
    from mls.reader import MlsSyntaxError

    monkeypatch.setattr(interpreter, "MAX_CALL_DEPTH", 50)

    @settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
    @given(st.text(alphabet='abx12 .+-*/<>=!&|(){}[]$,;"\n', max_size=30))
    def fuzz(text):
        try:
            exprs = reader.parse_program(text)
        except MlsSyntaxError:
            return
        try:
            Interpreter().eval_program(exprs)
        except MlsError:
            pass

    fuzz()


# -- locality property ---------------------------------------------------------------

def test_random_pure_programs_preserve_globals():
    from mls.interpreter import Interpreter

    gen = PureProgramGenerator(1234)
    for _ in range(25):
        program, call = gen.program()
        interp = Interpreter()
        interp.eval_source(program)
        snap = snapshot_frame(interp.global_env)
        interp.eval_source(call)
        assert frame_matches_snapshot(interp.global_env, snap), program


# -- frame entries -------------------------------------------------------------------

def _frames_reachable(roots):
    """Every environment reachable from `roots` through frame entries,
    promises, closures, environment values, lists, attributes, S4 slots
    and reference instances, which are frames themselves."""
    frames, seen, stack = [], set(), list(roots)
    while stack:
        x = stack.pop()
        if x is None or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Environment):
            frames.append(x)
            stack += [x.parent, *x.frame.values()]
        elif isinstance(x, Promise):
            stack += [x.value, x.env]
        elif isinstance(x, Binding):
            stack += [x.value, x.getter, x.setter]
        elif isinstance(x, values.Value):
            stack += x.attributes.values()
            payload = x.payload
            if x.kind == values.LIST:
                stack += payload
            elif x.kind == values.CLOSURE:
                stack.append(payload.enclosure)
            elif x.kind == values.ENVIRONMENT:
                stack.append(payload)
            elif x.kind == values.REF_INSTANCE:
                stack.append(payload)
            elif x.kind == values.S4_INSTANCE:
                stack += payload.slot_values.values()
    return frames


def _run_checking_frames(source):
    """Run `source` in a fresh interpreter, then check every entry of every
    frame reachable from the global and base frames or from a call frame
    the run made: a `Value`, a `Promise`, a `Binding` in a special mode, or
    one of the builtins base was installed with.  Returns the number of
    closure calls the run made."""
    interp = Interpreter(stdout=io.StringIO(), stderr=io.StringIO())
    installed = dict(interp.base_env.frame)
    call_envs = []

    def exec_closure(fn, call_env, *rest, _run=interp.exec_closure):
        call_envs.append(call_env)
        return _run(fn, call_env, *rest)

    interp.exec_closure = exec_closure
    interp.run_top_level(reader.parse_program(source))
    bad = []
    for env in _frames_reachable([interp.global_env, interp.base_env, *call_envs]):
        for name, entry in env.frame.items():
            if entry.__class__ in (values.Value, Promise) or installed.get(name) is entry:
                continue
            if entry.__class__ is Binding and (entry.getter or entry.missing_name):
                continue
            bad.append((env.tag, name, entry))
    assert bad == [], source
    return len(call_envs)


def test_frame_entries_are_values_promises_or_special_bindings():
    for path in sorted(CORPUS.glob("*.mls")):
        assert _run_checking_frames(path.read_text()) > 0
    gen = PureProgramGenerator(4321)
    for _ in range(200):
        program, call = gen.program()
        assert _run_checking_frames(f"{program}\n{call}") > 0


def test_assignment_and_arguments_leave_the_value_itself_in_the_frame():
    interp = Interpreter()
    interp.eval_source("""
        x <- c(1, 2)
        f <- function(a, b, d = a) { e <- environment(); a <- 1; e }
        g <- function(a) { a; environment() }
        fe <- f(x)
        ge <- g(x)
    """)
    assert interp.global_env.frame["x"].__class__ is values.Value
    f_frame = interp.global_env.frame["fe"].payload.frame
    assert f_frame["a"].__class__ is values.Value and f_frame["a"].payload == [1]
    assert f_frame["b"].__class__ is Binding and f_frame["b"].missing_name == "b"
    assert f_frame["d"].__class__ is Promise and f_frame["d"].state == environment.PENDING
    a = interp.global_env.frame["ge"].payload.frame["a"]
    assert a.__class__ is Promise and a.value is interp.global_env.frame["x"]


# -- compiled closures ---------------------------------------------------------------

def test_one_parse_runs_in_interpreters_with_different_globals():
    exprs = reader.parse_program("f <- function(n) n * k\nf(2)")
    assert printed(exprs, "k <- 3") == "[1] 6\n"
    assert printed(exprs, "k <- 5") == "[1] 10\n"
    assert printed(exprs, "k <- 3") == "[1] 6\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reused_parse_prints_like_a_fresh_parse(seed):
    program, call = PureProgramGenerator(seed).program()
    source = f"{program}\n{call}"
    exprs = reader.parse_program(source)
    first = printed(exprs)
    assert printed(exprs) == first
    assert printed(reader.parse_program(source)) == first
