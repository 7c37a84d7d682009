from hypothesis import given, settings
from hypothesis import strategies as st

from mls import printer, syntax, values


def fmt(interp, src):
    return printer.format_value(interp.eval_source(src), interp)


def test_double_formatting():
    assert printer.format_double(120.0) == "120"
    assert printer.format_double(0.1) == "0.1"
    assert printer.format_double(float("nan")) == "NaN"
    assert printer.format_double(float("inf")) == "Inf"
    assert printer.format_double(float("-inf")) == "-Inf"
    assert printer.format_double(1e-8) == "1e-08"
    # every integral double below 1e16, where repr turns to exponent form, prints as an integer
    assert printer.format_double(1e15) == "1000000000000000"
    assert printer.format_double(-9999999999999998.0) == "-9999999999999998"
    assert printer.format_double(1e16) == "1e+16"


def _escape_each_character(s):
    table = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}
    return '"' + "".join(table.get(ch, ch) for ch in s) + '"'


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from('\\"\n\t\r`ab é中\x00')) | st.text())
def test_escape_string_escapes_backslash_quote_newline_and_tab_only(s):
    assert syntax.escape_string(s) == _escape_each_character(s)


def test_vector_formats(interp):
    assert fmt(interp, "c(1, 2, 3)") == "[1] 1 2 3"
    assert fmt(interp, "c(TRUE, FALSE)") == "[1] TRUE FALSE"
    assert fmt(interp, 'c("a", "b")') == '[1] "a" "b"'
    assert fmt(interp, "NULL") == "NULL"
    assert fmt(interp, "rng_draw(0)") == "numeric(0)"
    assert fmt(interp, "c(1, 2) == c(1, 3)") == "[1] TRUE FALSE"


def test_list_format(interp):
    assert fmt(interp, "list(a = 1, 2)") == "$a\n[1] 1\n\n[[2]]\n[1] 2\n"
    assert fmt(interp, "list()") == "list()"


def test_attribute_trailer(interp):
    out = fmt(interp, 'set_attr(c(1, 2), "class", c("money"))')
    assert out == '[1] 1 2\nattr(,"class")\n[1] "money"'


def test_closure_format(interp):
    assert fmt(interp, "function(x, y = 2) x * y") == "function(x, y = 2) x * y"


def test_s4_instance_format(interp):
    interp.eval_source('setClass("Pt", slots = list(x = "numeric"))')
    out = fmt(interp, 'new("Pt", x = 3)')
    assert out == 'An object of class "Pt"\nSlot "x":\n[1] 3\n'


def test_ref_instance_format(interp):
    interp.eval_source(
        'K <- setRefClass("K", fields = list(v = "numeric", '
        "twice = list(get = function() v * 2)), "
        "methods = list(poke = function() v))"
    )
    out = fmt(interp, "K(v = 4)")
    assert out == (
        'Reference class object of class "K"\n'
        'Field "v":\n[1] 4\n\n'
        'Field "twice":\n[1] 8\n'
    )


def test_ref_instance_prints_a_function_valued_field(interp):
    interp.eval_source('P <- setRefClass("P", fields = list(f = "ANY", n = "numeric"))')
    out = fmt(interp, "p <- P(n = 1); p$f <- function(x) x; p")
    assert out == (
        'Reference class object of class "P"\n'
        'Field "f":\nfunction(x) x\n\n'
        'Field "n":\n[1] 1\n'
    )


def test_generator_and_builtin_format(interp):
    interp.eval_source('G <- setRefClass("G", fields = list())')
    assert fmt(interp, "G") == 'Generator for class "G"'
    assert fmt(interp, "G$new") == "<builtin 'G$new'>"
    assert fmt(interp, "sum") == "<builtin 'sum'>"
    interp.eval_source('setGeneric("area", function(shape) standardGeneric("area"))')
    assert fmt(interp, "area") == 'standard generic for "area"'


def test_environment_format(interp):
    assert fmt(interp, "globalenv()") == "<environment: global>"
