import contextlib
import dataclasses
import gc
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    as_call,
    collector_paused,
    copy_expr,
    expr_equal,
    no_host_recursion,
    reference_parse_program,
    reference_tokenize,
    values_equal,
)
import mls
from mls import reader, syntax, values
from mls.interpreter import HOST_RECURSION_LIMIT
from mls.reader import MlsSyntaxError

REPO = Path(__file__).resolve().parents[1]
if str(REPO / "perfbench") not in sys.path:
    sys.path.insert(0, str(REPO / "perfbench"))

from mlsbench import harness  # noqa: E402


def parse1(src):
    return reader.parse_one(src)


def roundtrips(e):
    return expr_equal(e, reader.parse_one(syntax.deparse(e)))


def test_assignment_with_operator_call():
    e = parse1("x <- 1 + 2")
    assert isinstance(e, syntax.Assign)
    assert e.target.name == "x"
    call = e.value
    assert isinstance(call, syntax.Call)
    assert call.callee.name == "+"
    assert [a.value.payload for _, a in call.args] == [[1], [2]]


def test_function_literal_formals():
    e = parse1("f <- function(x, y = 2) x * y")
    fl = e.value
    assert isinstance(fl, syntax.FunctionLiteral)
    assert fl.formals[0] == ("x", None)
    assert fl.formals[1][0] == "y"
    assert fl.formals[1][1].value.payload == [2]


def test_if_expression_parses_and_canonicalizes():
    e = parse1("if (x > 0) x * factorial(x - 1) else 1")
    assert isinstance(e, syntax.If)
    c = as_call(e)
    assert c.callee.name == "if"
    assert len(c.args) == 3


def test_superassign_roundtrip():
    e = parse1("x <<- 1")
    assert isinstance(e, syntax.SuperAssign)
    assert roundtrips(e)


def test_field_invocation_parses_to_call_on_field():
    e = parse1("p$evolve()")
    assert isinstance(e, syntax.Call)
    assert isinstance(e.callee, syntax.FieldAccess)
    assert e.callee.name == "evolve"
    assert roundtrips(e)


def test_deparse_null():
    assert syntax.deparse(syntax.Constant(values.null_value())) == "NULL"


def test_locations_are_tracked():
    exprs = reader.parse_program("x <- 1\ny <- {\n  2\n}")
    assert exprs[0].loc == (1, 1)
    assert exprs[1].value.body[0].loc == (3, 3)


def test_comments_and_semicolons():
    exprs = reader.parse_program("x <- 1  # set x\n; y <- 2 ; z <- 3\n# done")
    assert len(exprs) == 3


def test_newline_statement_separation():
    exprs = reader.parse_program("x <- 1\n-y")
    assert len(exprs) == 2
    assert isinstance(exprs[1], syntax.Call)
    assert exprs[1].callee.name == "-"
    assert len(exprs[1].args) == 1


def test_trailing_operator_continues_statement():
    exprs = reader.parse_program("x <- 1 +\n  2")
    assert len(exprs) == 1


def test_newlines_inside_parens_are_ignored():
    exprs = reader.parse_program("f(\n  1,\n  2\n)")
    assert len(exprs) == 1
    assert len(exprs[0].args) == 2


def test_call_must_start_on_same_line():
    exprs = reader.parse_program("f\n(1)")
    assert len(exprs) == 2


def test_precedence():
    e = parse1("1 + 2 * 3")
    assert e.callee.name == "+"
    assert e.args[1][1].callee.name == "*"
    e = parse1("-2 * 3")
    assert e.callee.name == "*"
    assert e.args[0][1].callee.name == "-"
    e = parse1("!a == b")
    assert e.callee.name == "!"
    assert e.args[0][1].callee.name == "=="
    e = parse1("a || b && c")
    assert e.callee.name == "||"
    for src, grouped in [
        ("a - b - c", "(a - b) - c"),
        ("a / b / c", "(a / b) / c"),
        ("a < b < c", "(a < b) < c"),
        ("a || b || c", "(a || b) || c"),
        ("!!x", "!(!x)"),
        ("a && !b", "a && (!b)"),
        ("2 * -3", "2 * (-3)"),
        ("- -x", "-(-x)"),
    ]:
        assert expr_equal(parse1(src), parse1(grouped)), src
    for src, col in [("1 + !x", 5), ("x == !y", 6), ("-!x", 2)]:
        with pytest.raises(MlsSyntaxError, match="unexpected token '!'") as exc:
            reader.parse_program(src)
        assert exc.value.loc == (1, col), src
    assert len(reader.parse_program("a\n+ b")) == 2


def test_assignment_lexing_gotcha():
    assert isinstance(parse1("x<-1"), syntax.Assign)
    e = parse1("x < -1")
    assert e.callee.name == "<"


def test_right_associative_assignment():
    e = parse1("a <- b <- 2")
    assert isinstance(e, syntax.Assign)
    assert isinstance(e.value, syntax.Assign)


def test_index_assign_forms():
    e = parse1("x[1] <- 99")
    assert isinstance(e, syntax.IndexAssign)
    assert e.obj.name == "x"
    e = parse1("p$size <- 1")
    assert isinstance(e, syntax.FieldAssign)


def test_parse_one_takes_exactly_one_expression():
    with pytest.raises(MlsSyntaxError, match="expected a single expression, found 2"):
        mls.parse_one("1; 2")


def test_statement_level_equals_is_an_error():
    with pytest.raises(MlsSyntaxError, match="named arguments"):
        reader.parse_program("x = 1")


def test_syntax_error_has_location():
    with pytest.raises(MlsSyntaxError) as exc:
        reader.parse_program("x <- (1 + ]")
    assert exc.value.loc == (1, 11)


def test_incomplete_input_flag():
    with pytest.raises(MlsSyntaxError) as exc:
        reader.parse_program("f <- function(x) {")
    assert exc.value.incomplete
    with pytest.raises(MlsSyntaxError) as exc:
        reader.parse_program("x <- ]")
    assert not exc.value.incomplete


def test_backtick_names():
    e = parse1('`+.money` <- function(a, b) a')
    assert e.target.name == "+.money"
    assert roundtrips(e)


def test_superassign_target_must_be_symbol():
    with pytest.raises(MlsSyntaxError, match="superassignment"):
        reader.parse_program("x[1] <<- 2")


def test_duplicate_formal_rejected():
    with pytest.raises(MlsSyntaxError, match="duplicated formal"):
        reader.parse_program("function(a, a) a")


def test_strings_escapes_roundtrip():
    e = parse1('"a\\"b\\\\c\\nd"')
    assert e.value.payload == ['a"b\\c\nd']
    assert roundtrips(e)


def test_only_ascii_digits_make_numbers():
    for src in ("y <- 1 + \u00b2", "y <- \u0663"):  # superscript two, Arabic-Indic three
        with pytest.raises(MlsSyntaxError, match="unexpected character") as exc:
            reader.parse_program(src)
        assert exc.value.loc == (1, len(src))
    e = parse1("x\u00b2 <- 1")  # a digit-like character may still continue a name
    assert e.target.name == "x\u00b2"
    assert parse1("x <- 12.5e1").value.value.payload == [125.0]


def test_integer_literal_longer_than_the_host_converts_is_a_syntax_error(int_digit_limit):
    digits = "1" * int_digit_limit
    with pytest.raises(MlsSyntaxError, match="^integer literal too large "):
        reader.tokenize("x <- " + digits)
    with pytest.raises(MlsSyntaxError) as exc:
        reader.tokenize("x <-\n  " + digits + "1")
    assert exc.value.message == f"integer literal too long ({int_digit_limit + 1} digits)"
    assert exc.value.loc == (2, 3)


def test_integer_literal_above_the_integer_bound_is_a_syntax_error():
    bound = str(values.INT_MAX)
    assert parse1("x <- " + bound).value.value.payload == [values.INT_MAX]
    assert parse1("x <- 000" + bound).value.value.payload == [values.INT_MAX]
    with pytest.raises(MlsSyntaxError) as exc:
        reader.tokenize("x <-\n  " + str(values.INT_MAX + 1))
    assert (exc.value.message, exc.value.loc) == ("integer literal too large", (2, 3))


def test_escaped_newline_in_string_advances_the_line():
    exprs = reader.parse_program('s <- "a\\\nb"\nnope')
    assert exprs[0].value.value.payload == ["a\nb"]
    assert exprs[1].loc == (3, 1)


def _lexed(source):
    """Each token as (type, value, line, col, after_newline), or the error
    as ("error", message, line, col, incomplete)."""
    try:
        return [(kind, value, *loc, after_newline)
                for kind, _, value, loc, after_newline in reader.tokenize(source)]
    except MlsSyntaxError as e:
        return ("error", e.message, *e.loc, e.incomplete)


@pytest.mark.parametrize(
    "source, expected",
    [
        # a newline inside a string, raw or escaped, starts a new line
        ('"a\nb" y', [("STR", "a\nb", 1, 1, False), ("SYM", "y", 2, 4, False),
                      ("EOF", None, 2, 5, False)]),
        ('"a\\\nb" y', [("STR", "a\nb", 1, 1, False), ("SYM", "y", 2, 4, False),
                        ("EOF", None, 2, 5, False)]),
        ("1. .5", [("NUM", 1.0, 1, 1, False), ("NUM", 0.5, 1, 4, False),
                   ("EOF", None, 1, 6, False)]),
        ("1e 1e+", [("INT", 1, 1, 1, False), ("SYM", "e", 1, 2, False),
                    ("INT", 1, 1, 4, False), ("SYM", "e", 1, 5, False),
                    ("OP", "+", 1, 6, False), ("EOF", None, 1, 7, False)]),
        ("1.5e-3 ._x", [("NUM", 0.0015, 1, 1, False), ("SYM", "._x", 1, 8, False),
                        ("EOF", None, 1, 11, False)]),
        ("x²", [("SYM", "x²", 1, 1, False), ("EOF", None, 1, 3, False)]),
        ("a ²", ("error", "unexpected character '²'", 1, 3, False)),
        ("½", ("error", "unexpected character '½'", 1, 1, False)),
        ("٣", ("error", "unexpected character '٣'", 1, 1, False)),
        ("a & b", ("error", "unexpected character '&'", 1, 3, False)),
        ("a\n\fb", ("error", "unexpected character '\\x0c'", 2, 1, False)),
        ("x <- ``", ("error", "empty quoted name", 1, 6, False)),
        ("x <- `a\nb`", ("error", "unterminated quoted name", 1, 6, False)),
        ('x <- "a\nb', ("error", "unterminated string constant", 1, 6, True)),
        # newlines separate statements outside ( ) and [ ], and inside { }
        ("(a\nb)", [("OP", "(", 1, 1, False), ("SYM", "a", 1, 2, False),
                    ("SYM", "b", 2, 1, False), ("OP", ")", 2, 2, False),
                    ("EOF", None, 2, 3, False)]),
        ("[{a\nb}\n]", [("OP", "[", 1, 1, False), ("OP", "{", 1, 2, False),
                        ("SYM", "a", 1, 3, False), ("SYM", "b", 2, 1, True),
                        ("OP", "}", 2, 2, False), ("OP", "]", 3, 1, False),
                        ("EOF", None, 3, 2, False)]),
    ],
)
def test_tokenizer_edge_cases(source, expected):
    assert _lexed(source) == expected


def _lexed_fully(tokenize, source):
    """Every field of each token, or the error's message, location and
    `incomplete` flag."""
    try:
        return [(kind, text, value, *loc, after_newline)
                for kind, text, value, loc, after_newline in tokenize(source)]
    except MlsSyntaxError as e:
        return ("error", e.message, e.loc, e.incomplete)


_SOUP = st.sampled_from([
    " ", "  ", "\t", "\r", "\n", "\r\n", "#", "# note", "x", "a.b", "_y", "x²", "²", "½",
    "12", "1.5e3", ".5", "1e", '"s"', '"two\nlines"', '"a\\"b"', "'q'", "'x\ny\nz'",
    '"open', "'open", "`q`", "`open", "`a\nb`", "``", "<-", "<<-", "=", "==", "&&", "&",
    "(", ")", "[", "]", "{", "}", ",", ";", "$", "+", "-", "\\", "\f", "function", "TRUE",
    "99999999999999999999",
])


@settings(max_examples=500, deadline=None)
@given(st.lists(_SOUP, max_size=30).map("".join))
@example("x # note")
@example("x  \t")
@example("x\r")
@example('f( "a\nb" y) # c')
@example("'open # c")
@example("`open\n")
@example("a ²")
def test_tokenize_matches_the_reference_tokenizer(source):
    assert _lexed_fully(reader.tokenize, source) == _lexed_fully(reference_tokenize, source)


# -- differential: the reader against the reference reader ----------------------------


def _read(parse, source):
    """Each tree with its repr (every field and `loc`), or the error's
    message, location and `incomplete` flag."""
    try:
        return [(e, repr(e)) for e in parse(source)]
    except MlsSyntaxError as e:
        return ("error", e.message, e.loc, e.incomplete)


def _assert_reads_as_the_reference(source):
    got, want = _read(reader.parse_program, source), _read(reference_parse_program, source)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, list), got
    assert [r for _, r in got] == [r for _, r in want]
    assert all(expr_equal(a, b) for (a, _), (b, _) in zip(got, want))


_PARSE_SOUP = st.sampled_from([
    " ", "\n", "\n\n", "# c\n", "x", "f", "a.b", "`odd name`", "`(`", "12", "1.5", "1e3", '"s"',
    "'two\nlines'", "TRUE", "FALSE", "NULL", "function", "if", "else", "while", "<-", "<<-",
    "=", "+", "-", "*", "/", "!", "<", ">=", "==", "!=", "&&", "||", "(", ")", "[", "]", "{",
    "}", ",", ";", "$", "f(", "x[", "x$", "x$y", "g(n = ", "function(a, b = 1) ", "²", '"open',
])


@settings(max_examples=800, deadline=None)
@given(st.tuples(st.sampled_from(["", " "]), st.lists(_PARSE_SOUP, max_size=30))
       .map(lambda sep_parts: sep_parts[0].join(sep_parts[1])))
@example("f\n(1)")
@example("x <- f(a)[1]$b(2)\n-y")
@example("(function(x) x)(1)")
@example("-x$y(1) + !z")
@example("{ a; b\n c }")
def test_parser_matches_the_reference_parser_on_token_soups(source):
    _assert_reads_as_the_reference(source)


@pytest.mark.parametrize("path", sorted((REPO / "corpus").rglob("*.mls")), ids=lambda p: p.name)
def test_parser_matches_the_reference_parser_on_the_corpus_and_its_prefixes(path):
    text = path.read_text(encoding="utf-8")
    _assert_reads_as_the_reference(text)
    for end in range(0, len(text), 3):
        _assert_reads_as_the_reference(text[:end])


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_parser_matches_the_reference_parser_on_generated_units(workload):
    for unit in harness.generate(workload, 11, 0.2, REPO):
        if workload != "analyze":
            _assert_reads_as_the_reference(unit.source)
            continue
        for _, source in unit.modules:  # import lines blanked, as purity.parse_module does
            lines = source.split("\n")
            _assert_reads_as_the_reference(
                "\n".join("" if line.startswith("import ") else line for line in lines)
            )


def _parse_error(source):
    try:
        reader.parse_program(source)
    except MlsSyntaxError as e:
        return e.message, e.loc, e.incomplete
    raise AssertionError(f"{source!r} parsed")


@pytest.mark.parametrize(
    "source, expected",
    [
        # a call, index or field suffix must start on its callee's line
        ("f\n(1 2", ("expected ')' but found '2'", (2, 4), False)),
        ("x\n[1]", ("unexpected token '['", (2, 1), False)),
        ("x\n$a", ("unexpected token '$'", (2, 1), False)),
        ("x$1", ("expected a field name after '$'", (1, 3), False)),
        ("x$", ("expected a field name after '$'", (1, 3), True)),
        ("f(1 2", ("expected ')' but found '2'", (1, 5), False)),
        ("f(", ("unexpected token 'end of input'", (1, 3), True)),
        ("g(a = )", ("unexpected token ')'", (1, 7), False)),
        ("a[]", ("missing index", (1, 2), False)),
        ("x[1", ("expected ']' but found 'end of input'", (1, 4), True)),
        ("1 + !x", ("unexpected token '!'", (1, 5), False)),
        ("1 +", ("unexpected token 'end of input'", (1, 4), True)),
        ("x = 1", ("'=' is only valid for named arguments; use '<-' for assignment",
                   (1, 3), False)),
        ("{ 1", ("unexpected token 'end of input'", (1, 4), True)),
        ("{ 1 2 }", ("unexpected token '2'", (1, 5), False)),
        ("(1", ("expected ')' but found 'end of input'", (1, 3), True)),
        (")", ("unexpected token ')'", (1, 1), False)),
        ("1 2", ("unexpected token '2'", (1, 3), False)),
        ("else", ("unexpected keyword 'else'", (1, 1), False)),
        ("function(1) 2", ("expected a formal argument name", (1, 10), False)),
        ("if (1) 2 else", ("unexpected token 'end of input'", (1, 14), True)),
    ],
)
def test_parser_error_outputs(source, expected):
    assert _parse_error(source) == expected


def test_nesting_deeper_than_the_host_stack_is_a_syntax_error():
    depth = HOST_RECURSION_LIMIT  # each level costs at least one host frame
    with no_host_recursion(), pytest.raises(MlsSyntaxError, match="nested too deeply"):
        reader.parse_program("x <- " + "(" * depth + "1" + ")" * depth)


# -- the collector pause -------------------------------------------------------

# a clean read, three syntax errors, and nesting past the host stack
_CLEAN = "f <- function(x) { y <- x[1]; if (y > 0) y else -y }"
_ERRORS = ["f(", "x <- )", "'abc", "x <- " + "(" * 30_000 + "1" + ")" * 30_000]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("source", [_CLEAN, _ERRORS[0], _ERRORS[3]],
                         ids=["clean", "syntax error", "nested too deeply"])
def test_parse_program_pauses_the_collector_and_restores_it(enabled, source, monkeypatch):
    seen = []
    tokenize = reader.tokenize
    monkeypatch.setattr(reader, "tokenize", lambda s: seen.append(gc.isenabled()) or tokenize(s))
    with collector_paused(enabled):
        with no_host_recursion(), contextlib.suppress(MlsSyntaxError):
            reader.parse_program(source)
        assert seen == [False]
        assert gc.isenabled() == enabled


def test_reading_makes_no_reference_cycle():
    """So a collection while the reader runs could free nothing: with the
    collector off, reading the corpus scripts and the error inputs leaves
    no unreachable object."""
    errors = 0
    with collector_paused():
        for path in sorted((REPO / "corpus").glob("*.mls")):
            reader.parse_program(path.read_text())
        for source in _ERRORS:
            try:
                reader.parse_program(source)
            except MlsSyntaxError:
                errors += 1
        assert gc.collect() == 0
    assert errors == len(_ERRORS)


def test_dangling_else_deparse():
    inner = reader.parse_one("if (b) x")
    outer = syntax.If(reader.parse_one("a"), inner, reader.parse_one("y"))
    assert roundtrips(outer)


# -- canonicalization --------------------------------------------------------

CANONICAL_CASES = [
    ("x <- 1", "<-"),
    ("x <<- 1", "<<-"),
    ("{ 1; 2 }", "{"),
    ("if (a) b", "if"),
    ("while (a) b", "while"),
    ("x[1]", "["),
    ("x[1] <- 2", "[<-"),
    ("x$f", "$"),
    ("x$f <- 2", "$<-"),
    ("function(x) x", "function"),
]


@pytest.mark.parametrize("src,head", CANONICAL_CASES)
def test_canonical_call_view(src, head):
    e = reader.parse_one(src)
    c = as_call(e)
    assert isinstance(c, syntax.Call)
    assert c.callee.name == head


def test_canonicalization_leaves():
    assert as_call(reader.parse_one("x")) is None
    assert as_call(reader.parse_one("1")) is None


# -- property: parse/deparse round trip ---------------------------------------

_names = st.sampled_from(["x", "y", "zed", "alpha", "f", "g2", ".hidden", "a.b", "odd name"])
_arg_names = st.sampled_from(["n", "value", "data.x"])

_scalars = st.one_of(
    st.integers(0, 10000).map(values.scalar_int),
    # abs() keeps -0.0 out: its repr would reparse as unary minus
    st.floats(min_value=0, allow_nan=False, allow_infinity=False, width=64).map(
        lambda x: values.scalar_double(abs(x))
    ),
    st.text(
        alphabet="abcXYZ012 .,$()\\\"\n\t", max_size=8
    ).map(values.scalar_string),
    st.booleans().map(values.scalar_bool),
    st.just(values.null_value()),
)

_leaves = st.one_of(
    _scalars.map(syntax.Constant),
    _names.map(syntax.Symbol),
)


def _extend(children):
    binary = st.builds(
        lambda op, a, b: syntax.Call(syntax.Symbol(op), [(None, a), (None, b)]),
        st.sampled_from(syntax.BINARY_OPS),
        children,
        children,
    )
    unary = st.builds(
        lambda op, a: syntax.Call(syntax.Symbol(op), [(None, a)]),
        st.sampled_from(syntax.UNARY_OPS),
        children,
    )
    call = st.builds(
        lambda callee, args: syntax.Call(
            callee, [(n, a) for n, a in args]
        ),
        st.one_of(_names.map(syntax.Symbol), children.map(lambda e: e)),
        st.lists(
            st.tuples(st.one_of(st.none(), _arg_names), children), max_size=3
        ),
    )
    function = st.builds(
        lambda defaults, body: syntax.FunctionLiteral(
            [
                (name, default)
                for name, default in zip(["p", "q", "r"], defaults)
            ],
            body,
        ),
        st.lists(st.one_of(st.none(), children), min_size=0, max_size=3),
        children,
    )
    assign = st.builds(
        lambda n, v: syntax.Assign(syntax.Symbol(n), v), _names, children
    )
    superassign = st.builds(
        lambda n, v: syntax.SuperAssign(syntax.Symbol(n), v), _names, children
    )
    block = st.builds(syntax.Block, st.lists(children, max_size=3))
    if_ = st.builds(
        syntax.If, children, children, st.one_of(st.none(), children)
    )
    while_ = st.builds(syntax.While, children, children)
    index = st.builds(
        syntax.Index, children, st.lists(children, min_size=1, max_size=2)
    )
    index_assign = st.builds(
        lambda n, idx, v: syntax.IndexAssign(syntax.Symbol(n), idx, v),
        _names,
        st.lists(children, min_size=1, max_size=2),
        children,
    )
    field = st.builds(syntax.FieldAccess, children, _names)
    field_assign = st.builds(syntax.FieldAssign, children, _names, children)
    return st.one_of(
        binary, unary, call, function, assign, superassign, block, if_, while_,
        index, index_assign, field, field_assign,
    )


_expressions = st.recursive(_leaves, _extend, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_expressions)
def test_parse_deparse_roundtrip(e):
    text = syntax.deparse(e)
    reparsed = reader.parse_one(text)
    assert expr_equal(e, reparsed), text


@settings(max_examples=300, deadline=None)
@given(_expressions)
def test_parser_matches_the_reference_parser_on_deparsed_trees(e):
    text = syntax.deparse(e)
    _assert_reads_as_the_reference(text)
    _assert_reads_as_the_reference(text.replace(" ", "\n"))  # a suffix or operator after a newline


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abx12 .+-*/<>=!&|(){}[]$,;#\"'\n\t`_", max_size=40))
def test_parser_total_over_junk(text):
    # any input either parses or raises a syntax error, never crashes
    try:
        reader.parse_program(text)
    except MlsSyntaxError:
        pass


def _leaf_edits(e):
    """Every way to change one leaf of `e` in place: a symbol, field or
    argument name, a constant, a formal's default, or whether an else
    branch is there."""
    null = syntax.Constant(values.null_value())
    edits = []
    stack = [e]
    while stack:
        node = stack.pop()
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            if f.name == "loc":
                continue
            if isinstance(v, str):
                edits.append(partial(setattr, node, f.name, v + "_"))
            elif isinstance(v, values.Value):
                edits.append(partial(setattr, node, f.name, values.scalar_string("\0")))
            elif f.name == "orelse":
                edits.append(partial(setattr, node, f.name, null if v is None else None))
                stack.extend([v] if v is not None else [])
            elif isinstance(v, list):
                for i, item in enumerate(v):
                    if not isinstance(item, tuple):
                        stack.append(item)
                        continue
                    name, x = item
                    edits.append(partial(v.__setitem__, i, (name + "_" if name else "mut", x)))
                    if f.name == "formals":
                        edits.append(partial(v.__setitem__, i, (name, null if x is None else None)))
                    stack.extend([x] if x is not None else [])
            else:
                stack.append(v)
    return edits


@settings(max_examples=200, deadline=None)
@given(_expressions, st.data())
def test_changing_one_leaf_breaks_expr_equal(e, data):
    assert expr_equal(e, copy_expr(e))
    edited = copy_expr(e)
    edits = _leaf_edits(edited)
    assume(edits)
    data.draw(st.sampled_from(edits))()
    assert not expr_equal(e, edited)
    assert not expr_equal(edited, e)


@settings(max_examples=100, deadline=None)
@given(_expressions)
def test_canonicalization_totality(e):
    stack = [e]
    while stack:
        node = stack.pop()
        c = as_call(node)
        children = syntax.child_expressions(node)
        stack.extend(children)
        if isinstance(node, (syntax.Constant, syntax.Symbol)):
            assert c is None and children == []
            continue
        if isinstance(node, syntax.Call):
            assert c is node
            continue
        assert isinstance(c, syntax.Call)
        # the call's arguments are the children, by identity and in
        # order, plus the field name as a string and NULL defaults
        args = [a for _, a in c.args]
        kept = [a for a in args if any(a is x for x in children)]
        assert len(kept) == len(children)
        assert all(a is x for a, x in zip(kept, children))
        if isinstance(node, (syntax.FieldAccess, syntax.FieldAssign)):
            allowed = [values.scalar_string(node.name)]
        elif isinstance(node, syntax.FunctionLiteral):
            allowed = [values.null_value() for _, d in node.formals if d is None]
        else:
            allowed = []
        extra = [a for a in args if not any(a is x for x in children)]
        assert len(extra) == len(allowed)
        assert all(
            isinstance(a, syntax.Constant) and values_equal(a.value, v)
            for a, v in zip(extra, allowed)
        )
