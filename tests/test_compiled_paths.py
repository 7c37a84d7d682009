"""The common cases that compiled operator sites and symbol nodes handle
themselves, checked against the general paths they bypass; the integer
bound; and S3 operator methods for formal instances."""

import io
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_apply_operator,
    reference_get_value,
    value_fingerprint,
)
from mls import environment, purity, reader, syntax, values
from mls.environment import BINARY_OPERATORS, Binding, Environment, Promise
from mls.interpreter import Interpreter, compile_expr
from mls.values import MlsError, Value

# -- operator sites ------------------------------------------------------------

_METHODS = (
    '`+.m` <- function(e1, e2) "m plus"\n'
    '`+.z` <- function(e1, e2) "z plus"\n'
    "`-.m` <- function(e1, e2) invisible(c(a = 1))\n"
    "`<.m` <- function(e1, e2) c(lt = TRUE)\n"
    '`==.z` <- function(e1, e2) "z eq"\n'
    '`/.m` <- function(e1, e2) stop("m div")\n'
)

_ELEMENTS = {
    values.LOGICAL: st.booleans(),
    values.INTEGER: st.integers(-2**31, 2**31),
    values.DOUBLE: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5]),
    ),
    values.STRING: st.sampled_from(["a", "b", ""]),
}


@st.composite
def _plain_number(draw):
    kind = draw(st.sampled_from([values.INTEGER, values.DOUBLE]))
    return Value(kind, [draw(_ELEMENTS[kind])])


@st.composite
def _any_operand(draw):
    kind = draw(st.sampled_from(list(_ELEMENTS) + [values.NULL, values.LIST, values.CLOSURE]))
    if kind == values.NULL:
        return values.null_value()
    if kind == values.CLOSURE:
        return Value(values.CLOSURE, values.Closure([], syntax.Constant(values.null_value()), None))
    if kind == values.LIST:
        v = Value(values.LIST, [values.scalar_int(1)] * draw(st.integers(0, 2)))
    else:
        v = Value(kind, draw(st.lists(_ELEMENTS[kind], max_size=3)))
    attributes = {}
    if draw(st.booleans()):
        n = draw(st.sampled_from([len(v.payload), 1]))
        attributes["names"] = values.string_vec("pqr"[:n])
    cls = draw(st.sampled_from([None, ["m"], ["z"], ["y", "m"], ["y"]]))
    if cls is not None:
        attributes["class"] = values.string_vec(cls)
    return Value(v.kind, v.payload, attributes)


_OPERANDS = st.one_of(_plain_number(), _any_operand())
_SITES = {op: reader.parse_one(f"a {op} b") for op in BINARY_OPERATORS}


def _outcome(interp, thunk, loc=None):
    """The value or error of `thunk()` and what it wrote to stderr."""
    interp.stderr.seek(0)
    interp.stderr.truncate()
    try:
        result = ("value", value_fingerprint(thunk()))
    except MlsError as err:
        result = ("error", err.message, err.loc if err.loc is not None else loc)
    return result, interp.stderr.getvalue()


@pytest.fixture(scope="module")
def method_interp():
    interp = Interpreter(stdout=io.StringIO(), stderr=io.StringIO())
    interp.eval_source(_METHODS)
    return interp


@settings(max_examples=1500, deadline=None)
@given(op=st.sampled_from(BINARY_OPERATORS), lhs=_OPERANDS, rhs=_OPERANDS)
def test_operator_site_matches_the_parent_operator(method_interp, op, lhs, rhs):
    interp, env = method_interp, method_interp.global_env
    env.bind("a", lhs, interp)
    env.bind("b", rhs, interp)
    site = _SITES[op]
    got = _outcome(interp, lambda: interp.eval(site, env))
    expected = _outcome(
        interp, lambda: reference_apply_operator(interp, op, lhs, rhs, env, site.loc), site.loc
    )
    assert got == expected


def test_operator_site_computes_plain_scalars_in_place(monkeypatch):
    """Two attribute-free numeric scalars reach neither `apply_operator`
    nor `ops`; anything else does."""
    from mls import interpreter, ops

    calls = []
    for owner, name in [(interpreter, "apply_operator"), (ops, "arith_binary"),
                        (ops, "compare_binary")]:
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    interp = Interpreter(stdout=io.StringIO())
    interp.eval_source("x <- 2\ny <- 0.5\nx + y\nx / y\nx < y\nx * 3")
    assert calls == []
    interp.eval_source('c(1, 2) + 1\nset_attr(1, "names", "a") < 2')
    assert calls == ["apply_operator", "arith_binary", "apply_operator", "compare_binary"]


# -- the integer bound -------------------------------------------------------------

BIG = str(2**62)


def _error(src):
    with pytest.raises(MlsError) as exc:
        Interpreter(stdout=io.StringIO()).eval_source(src)
    return exc.value.message, exc.value.loc


@pytest.mark.parametrize("src, expected", [
    (f"x <- {BIG}\n1 + x + x", ("integer overflow in '+'", (2, 1))),
    (f"x <- -{BIG}\nx - {BIG} - 1", ("integer overflow in '-'", (2, 1))),
    (f"x <- 10\ny <- x * x * x * x * x\nz <- y * y * y * y", ("integer overflow in '*'", (3, 6))),
    (f"c(1, {BIG}) * 2", ("integer overflow in '*'", (1, 1))),
    (f"f <- `+`\nf(c({BIG}, 1), {BIG})", ("integer overflow in '+'", (2, 1))),
    (f"sum(c({BIG}, {BIG}, 1))", ("integer overflow in sum()", (1, 1))),
])
def test_an_integer_result_beyond_the_bound_is_an_error(src, expected):
    assert _error(src) == expected


def test_integers_up_to_the_bound_and_doubles_beyond_it_are_values():
    interp = Interpreter(stdout=io.StringIO())
    top = values.INT_MAX
    assert interp.eval_source(f"{top - 1} + 1").payload == [top]
    assert interp.eval_source(f"-{top} + 0").payload == [-top]
    assert interp.eval_source(f"sum(c({top - 1}, 1))").payload == [top]
    assert interp.eval_source(f"{top} * 2.0").payload == [float(top) * 2]
    assert interp.eval_source(f"{top} / 1").kind == values.DOUBLE


# -- S3 operator methods for formal instances -----------------------------------------

_FORMAL = """
setClass("M", slots = list(v = "numeric"))
setClass("N", slots = list(w = "numeric"), contains = "M")
`+.M` <- function(e1, e2) paste("M plus", class(e2))
R <- setRefClass("R", fields = list(v = "numeric"))
S <- setRefClass("S", contains = "R")
`*.R` <- function(e1, e2) e1$v * e2
`+.k` <- function(e1, e2) "k plus"
"""


@pytest.mark.parametrize("src, expected", [
    ('new("M", v = 1) + 1', ["M plus integer"]),
    ('1 + new("N", v = 1, w = 2)', ["M plus N"]),
    ("R$new(v = 3) * 2", [6]),
    ("S$new(v = 4) * 2", [8]),
    ('set_attr(new("M", v = 1), "class", "k") + 1', ["k plus"]),
    ('f <- `+`\nf(new("N", v = 1, w = 2), 2.5)', ["M plus numeric"]),
])
def test_formal_instances_select_s3_operator_methods(src, expected):
    interp = Interpreter(stdout=io.StringIO())
    interp.eval_source(_FORMAL)
    assert interp.eval_source(src).payload == expected


def test_a_formal_instance_without_an_operator_method_is_not_numeric():
    src = _FORMAL + 'new("M", v = 1) - 1'
    assert _error(src) == ("non-numeric argument to binary operator '-'", (9, 1))


# -- symbol nodes -----------------------------------------------------------------

_MODES = ("immediate", "pending", "forced", "recursive default", "missing", "active field",
          "unbound")
_FRAMES = ("local", "enclosing", "global", "base")


def _symbol_setup(mode, frame):
    """An interpreter, a local frame two closures deep, and `v` bound by
    `mode` in `frame`, with a decoy binding further out."""
    interp = Interpreter(stdout=io.StringIO())
    enclosing = Environment(interp.global_env, "call:g")
    local = Environment(enclosing, "call:f")
    target = {"local": local, "enclosing": enclosing, "global": interp.global_env,
              "base": interp.base_env}[frame]
    if mode == "unbound":
        return interp, local, None
    if target is not interp.base_env:
        interp.base_env.bind("v", values.scalar_string("decoy"), interp)
    if mode == "immediate":
        entry = values.scalar_int(1)
    elif mode in ("pending", "forced"):
        entry = Promise(reader.parse_one("1 + 1"), interp.global_env)
        if mode == "forced":
            entry.force(interp)
    elif mode == "recursive default":
        entry = Promise(syntax.Symbol("v", loc=(7, 9)), local)
    elif mode == "missing":
        entry = Binding(missing_name="v")
    else:  # "active field"
        entry = Binding(getter=interp.eval_source("function() 42"))
    target.bind("v", entry, interp)
    return interp, local, entry


def _read(mode, frame, read, monkeypatch):
    interp, local, entry = _symbol_setup(mode, frame)
    forced = []
    original = Promise.force

    def counting_force(self, interp):
        forced.append(self.state == environment.PENDING)
        return original(self, interp)

    monkeypatch.setattr(Promise, "force", counting_force)
    try:
        result = ("value", value_fingerprint(read(interp, local)))
    except MlsError as err:
        result = ("error", err.message, err.loc)
    finally:
        monkeypatch.setattr(Promise, "force", original)
    state = entry.state if entry.__class__ is Promise else None
    return result, sum(forced), state


@pytest.mark.parametrize("frame", _FRAMES)
@pytest.mark.parametrize("mode", _MODES)
def test_symbol_node_matches_the_parent_variable_read(mode, frame, monkeypatch):
    node = syntax.Symbol("v", loc=(3, 4))
    got = _read(mode, frame, lambda interp, env: compile_expr(node)(interp, env), monkeypatch)
    expected = _read(mode, frame, lambda interp, env: reference_get_value(env, "v", interp, (3, 4)),
                     monkeypatch)
    assert got == expected
    assert got[0][0] == ("error" if mode in ("recursive default", "missing", "unbound") else "value")


def test_index_assignment_to_an_unbound_name_names_the_assignment():
    assert _error("y <- 1\n  nope[1] <- 2") == ("object 'nope' not found", (2, 3))


# -- the analyzer on the deep host stack --------------------------------------------------


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def test_analyzer_scans_deep_nesting_at_the_default_recursion_limit(default_recursion_limit):
    source = "f <- function(x) " + "g(" * 1500 + "x" + ")" * 1500 + "\ng <- function(y) y\n"
    module = purity.parse_module("m", source)
    report = purity.analyze_modules([module])
    assert report.summary[purity.FUNCTIONAL] == 2
    assert sys.getrecursionlimit() == 1000


def test_analyzer_nesting_beyond_the_host_stack_is_an_mls_error(default_recursion_limit):
    body = syntax.Symbol("x", loc=(1, 1))
    for _ in range(30_000):
        body = syntax.Call(syntax.Symbol("g", loc=(1, 1)), [(None, body)], loc=(1, 1))
    literal = syntax.FunctionLiteral([("x", None)], body, loc=(2, 6))
    module = purity.ModuleUnit("m", {"f": literal}, {"f"}, [])
    with pytest.raises(MlsError) as exc:
        purity.analyze_modules([module])
    assert (exc.value.message, exc.value.loc) == ("function 'f' nested too deeply", (2, 6))
    assert sys.getrecursionlimit() == 1000
