import copy
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mls import ops, reader, values
from mls.interpreter import Interpreter
from mls.values import MlsError, Value


def test_implicit_class_base_kinds():
    assert values.implicit_class(values.double_vec([1.5])).payload == ["numeric"]
    assert values.implicit_class(values.null_value()).payload == ["NULL"]
    assert values.implicit_class(values.int_vec([1])).payload == ["integer"]
    assert values.implicit_class(values.string_vec(["a"])).payload == ["character"]
    assert values.implicit_class(values.logical_vec([True])).payload == ["logical"]
    assert values.implicit_class(values.list_value([])).payload == ["list"]


def test_implicit_class_prefers_class_attribute():
    v = values.set_attribute(
        values.double_vec([1]), "class", values.string_vec(["glm", "lm"])
    )
    assert values.implicit_class(v).payload == ["glm", "lm"]


def test_implicit_class_never_empty():
    for v in (
        values.null_value(),
        values.int_vec([]),
        values.list_value([]),
        values.string_vec([]),
    ):
        assert len(values.implicit_class(v).payload) >= 1


def test_set_attribute_is_nondestructive():
    base = values.int_vec([1, 2])
    classed = values.set_attribute(base, "class", values.string_vec(["myclass"]))
    assert values.implicit_class(classed).payload == ["myclass"]
    assert "class" not in base.attributes


def test_set_attribute_class_removal():
    v = values.set_attribute(values.int_vec([1]), "class", values.string_vec(["c"]))
    stripped = values.set_attribute(v, "class", values.null_value())
    assert values.implicit_class(stripped).payload == ["integer"]


def test_set_attribute_rejects_bad_class():
    with pytest.raises(MlsError, match="invalid class attribute"):
        values.set_attribute(values.int_vec([1]), "class", values.int_vec([42]))
    with pytest.raises(MlsError, match="invalid class attribute"):
        values.set_attribute(values.int_vec([1]), "class", values.string_vec([]))


def test_names_attribute_validated():
    v = values.int_vec([1, 2])
    ok = values.set_attribute(v, "names", values.string_vec(["a", "b"]))
    assert values.element_names(ok) == ["a", "b"]
    with pytest.raises(MlsError, match="differs from element count"):
        values.set_attribute(v, "names", values.string_vec(["a"]))
    with pytest.raises(MlsError, match="not a character vector"):
        values.set_attribute(v, "names", values.int_vec([1, 2]))
    stripped = values.set_attribute(ok, "names", values.null_value())
    assert values.element_names(stripped) is None


def test_get_attribute_absent_is_null():
    assert values.get_attribute(values.int_vec([1, 2, 3]), "names").kind == values.NULL
    assert values.get_attribute(values.null_value(), "class").kind == values.NULL


def test_attribute_roundtrip():
    v = values.set_attribute(values.int_vec([1]), "class", values.string_vec(["lm"]))
    assert values.get_attribute(v, "class").payload == ["lm"]


def printed(interp, source):
    """What `mls run` would print for `source`, run in `interp`."""
    start = len(interp.stdout.getvalue())
    interp.run_top_level(reader.parse_program(source))
    return interp.stdout.getvalue()[start:]


def test_copy_vectors_independent(capture):
    src = "x <- c(1, 2, 3); y <- copy(x); y[1] <- 99; y; x"
    assert printed(capture, src) == "[1] 99 2 3\n[1] 1 2 3\n"


def test_deep_copy_null_identity():
    assert values.values_equal(values.deep_copy(values.null_value()), values.null_value())


@pytest.mark.parametrize("make", [
    lambda: values.scalar_int(1),
    lambda: values.list_value([]),
    lambda: Value(values.DOUBLE, [1.0]),
    lambda: ops.arith_binary("+", values.scalar_int(1), values.scalar_int(2)),
    lambda: ops.concat([(None, values.scalar_int(1))]),
], ids=["scalar", "list", "constructor", "operator", "concat"])
def test_a_value_built_without_attributes_cannot_gain_one(make):
    v = make()
    assert v.attributes is values.NO_ATTRIBUTES
    with pytest.raises(TypeError):
        v.attributes["names"] = values.scalar_string("a")


def test_every_null_is_one_value(interp):
    assert values.null_value() is values.null_value()
    assert interp.eval_source("NULL") is values.null_value()
    assert interp.eval_source("f <- function() NULL; f()") is values.null_value()


_SHARED = (values.TRUE, values.FALSE) + values.SMALL_INTS


@pytest.mark.parametrize("source, shared", [
    ("1 < 2", values.TRUE),
    ("TRUE", values.TRUE),
    ("2.5 >= 3", values.FALSE),
    ("FALSE", values.FALSE),
    ("is_null(NULL)", values.TRUE),
    ("inherits(1, \"list\")", values.FALSE),
    ("length(c(1, 2, 3))", values.SMALL_INTS[3]),
    ("sum(c(TRUE, FALSE, TRUE))", values.SMALL_INTS[2]),
    ("0", values.SMALL_INTS[0]),
    ("x <- 200; x + 55", values.SMALL_INTS[255]),
    (f"x <- {values.INT_MAX}; x - x", values.SMALL_INTS[0]),
])
def test_a_logical_scalar_and_an_integer_in_0_255_are_shared_values(interp, source, shared):
    assert interp.eval_source(source) is shared


@pytest.mark.parametrize("source, payload", [
    ("x <- 200; x + 56", [256]),
    ("256", [256]),
    ("0 - 1", [-1]),
    ("2 / 2", [1.0]),
    ("3 * 1.0", [3.0]),
    ("0.0", [0.0]),
    ("c(TRUE)", [True]),
])
def test_other_scalars_are_fresh_values(interp, source, payload):
    v = interp.eval_source(source)
    assert v.payload == payload and type(v.payload[0]) is type(payload[0])
    assert not any(v is s for s in _SHARED)
    assert interp.eval_source(source) is not v


_SHARED_SOURCES = ["1 < 2", "2 < 1", "TRUE", "FALSE", "1 == 1", "is_null(1)", "0", "3",
                   "length(c(1, 2))", "200 + 55", "7 - 7"]
_REPLACEMENTS = ["TRUE", "FALSE", "0", "1", "7", "255", "300", "2.5", '"s"', "NULL"]
_SHARED_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just('x <- set_attr(x, "{0}", "a")'), st.sampled_from(["units", "class"])),
        st.tuples(st.just('x <- set_attr(x, "names", "{0}")'), st.sampled_from("ab")),
        st.tuples(st.just("x[{0}] <- {1}"), st.integers(1, 2), st.sampled_from(_REPLACEMENTS)),
        st.tuples(st.just("x <- c(x, {0})"), st.sampled_from(_REPLACEMENTS)),
        st.tuples(st.just("n <- names(x)")),
        st.tuples(st.just("l <- list(a = x, b = {0}); l${1} <- {2}; x <- l$a"),
                  st.sampled_from(_SHARED_SOURCES), st.sampled_from("abc"),
                  st.sampled_from(_REPLACEMENTS)),
        st.tuples(st.just("f <- function(a) {{ a[1] <- {0}; a }}; y <- f(x)"),
                  st.sampled_from(_REPLACEMENTS)),
    ),
    min_size=1,
    max_size=6,
)


@given(start=st.sampled_from(_SHARED_SOURCES), edits=_SHARED_EDITS)
def test_editing_a_shared_scalar_leaves_every_shared_value_as_built(start, edits):
    """set_attr, `x[i] <-`, names, c() and a list `$<-` on a comparison
    result or a small integer build new values: TRUE, FALSE and each of
    SMALL_INTS keep their payload and gain no attribute."""
    interp = Interpreter(stdout=io.StringIO())
    for line in [f"x <- {start}"] + [template.format(*args) for template, *args in edits]:
        try:
            interp.eval_source(line)
        except MlsError:
            pass
    assert [v.payload for v in _SHARED] == [[True], [False]] + [[i] for i in range(256)]
    assert all(v.attributes is values.NO_ATTRIBUTES for v in _SHARED)


def test_copying_a_value_returns_it():
    named = values.list_value([values.scalar_int(1)], names=["a"])
    for v in (values.scalar_double(1.5), named, values.null_value()):
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
    assert copy.deepcopy([named]) == [named]


def test_values_compare_by_kind_payload_and_attributes_and_do_not_hash():
    assert Value(values.INTEGER, [1]) == values.scalar_int(1)
    assert Value(values.INTEGER, [1], {}) == values.scalar_int(1)
    assert Value(values.INTEGER, [1]) != Value(values.DOUBLE, [1])
    assert values.list_value([], names=[]) != values.list_value([])
    with pytest.raises(TypeError):
        hash(values.scalar_int(1))


def test_deep_copy_preserves_environment_aliasing(interp):
    env_value = interp.global_env.env_value()
    copy = values.deep_copy(env_value)
    assert copy.payload is env_value.payload


def test_copy_nested_lists_independent(capture):
    original = printed(capture, "x <- list(list(1, 2), 3); x")
    src = "y <- copy(x); inner <- el(y, 1); inner[1] <- 99; y[1] <- inner; el(el(y, 1), 1); x"
    assert printed(capture, src) == "[1] 99\n" + original


def test_copy_of_list_still_aliases_reference_instance(capture):
    src = (
        'A <- setRefClass("A", fields = list(n = "numeric"))\n'
        "a <- A$new(n = 1); l <- list(a); l2 <- copy(l)\n"
        "a$n <- 5\n"
        "el(l2, 1)$n"
    )
    assert printed(capture, src) == "[1] 5\n"


def test_values_equal_nan():
    a = values.double_vec([float("nan")])
    b = values.double_vec([float("nan")])
    assert values.values_equal(a, b)
    assert not values.values_equal(a, values.double_vec([0.0]))


def test_values_equal_on_instances(interp):
    interp.eval_source('setClass("P", slots = list(x = "numeric"))\nsetClass("Q", contains = "P")')
    a, same, other, sub = (
        interp.eval_source(src)
        for src in ('new("P", x = 1)', 'new("P", x = 1)', 'new("P", x = 2)', 'new("Q", x = 1)')
    )
    assert values.values_equal(a, same)
    assert not values.values_equal(a, other)
    assert not values.values_equal(a, sub)


def test_values_equal_checks_attributes():
    a = values.int_vec([1])
    b = values.set_attribute(a, "class", values.string_vec(["x"]))
    assert not values.values_equal(a, b)


@given(
    name=st.sampled_from(["class", "custom", "dim", "units"]),
    items=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3),
)
def test_attribute_roundtrip_property(name, items):
    attr = values.string_vec(items)
    v = values.set_attribute(values.double_vec([1.0, 2.0]), name, attr)
    assert values.values_equal(values.get_attribute(v, name), attr)


@given(st.lists(st.integers(-100, 100), max_size=6))
def test_deep_copy_structural_equality_property(xs):
    v = values.int_vec(xs)
    assert values.values_equal(values.deep_copy(v), v)


_ALIAS_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("attr"), st.sampled_from(["units", "class"]), st.sampled_from("abc")),
        st.tuples(st.just("index"), st.integers(1, 3), st.sampled_from(["7", "2.5", '"s"'])),
        st.tuples(
            st.just("field"), st.sampled_from(["a", "b", "new"]), st.sampled_from(["7", "NULL"])
        ),
    ),
    min_size=1,
    max_size=4,
)


def _edit_source(target, edit):
    kind, key, rhs = edit
    if kind == "attr":
        return f'{target} <- set_attr({target}, "{key}", "{rhs}")'
    if kind == "index":
        return f"{target}[{key}] <- {rhs}"
    return f"{target}${key} <- {rhs}"


@given(
    is_list=st.booleans(),
    items=st.lists(st.integers(-9, 9), min_size=3, max_size=5),
    edits=_ALIAS_EDITS,
)
def test_editing_an_alias_never_changes_the_original(is_list, items, edits):
    """set_attr, `x[i] <-` and `x$f <-` on an alias, at top level or on a
    function's argument, leave the original printing as it did."""
    interp = Interpreter(stdout=io.StringIO())
    if is_list:
        literal = "list(" + ", ".join(f"{k} = {x}" for k, x in zip("abcde", items)) + ")"
    else:
        literal = "c(" + ", ".join(map(str, items)) + ")"
        edits = [e for e in edits if e[0] != "field"]  # `$<-` applies to lists only
    original = printed(interp, f"x <- {literal}; x")
    lines = []
    for e in edits:
        lines.append(f"y <- x; {_edit_source('y', e)}")
        lines.append(f"f <- function(a) {{ {_edit_source('a', e)}; a }}; r <- f(x)")
    src = "\n".join(lines + ["x"])
    assert printed(interp, src) == original


_SCALARS = st.one_of(
    st.builds(values.scalar_int, st.integers(-10**6, 10**6)),
    st.builds(values.scalar_double, st.floats()),
    st.builds(values.scalar_bool, st.booleans()),
)


@given(
    op=st.sampled_from(["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="]),
    a=_SCALARS,
    b=_SCALARS,
)
def test_scalar_operators_match_the_vector_path(op, a, b):
    """An operator on two attribute-free length-1 operands gives the first
    element of the same operator on length-2 copies, in kind, value and
    Python type."""
    fn = ops.arith_binary if op in "+-*/" else ops.compare_binary
    one = fn(op, a, b)
    two = fn(op, Value(a.kind, a.payload * 2), Value(b.kind, b.payload * 2))
    assert one.attributes == {} == two.attributes
    assert values.values_equal(one, Value(two.kind, two.payload[:1]))
    assert type(one.payload[0]) is type(two.payload[0])
