import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import no_host_recursion
from mls import cli, ops, reader, syntax
from mls.interpreter import HOST_RECURSION_LIMIT


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_run_factorial(corpus_dir, capsys):
    code, out, err = run_cli(["run", str(corpus_dir / "factorial.mls")], capsys)
    assert code == 0
    assert "120" in out
    assert err == ""


def test_run_missing_file(capsys):
    code, out, err = run_cli(["run", "does/not/exist.mls"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_invalid_utf8_is_a_read_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.mls"
    bad.write_bytes(b"x <- 1\n\xff\n")
    code, out, err = run_cli([command, str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: cannot read '{bad}': 'utf-8' codec can't decode byte 0xff"
        " in position 7: invalid start byte\n"
    )


def test_run_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mls"
    bad.write_text("x <- (1 +")
    code, out, err = run_cli(["run", str(bad)], capsys)
    assert code == 2
    assert "error:" in err


def test_run_runtime_error_has_location(tmp_path, capsys):
    script = tmp_path / "boom.mls"
    script.write_text('x <- 1\nstop("kaput")\n')
    code, out, err = run_cli(["run", str(script)], capsys)
    assert code == 1
    assert "kaput" in err
    assert "line 2" in err


def test_run_rejects_a_cycle_through_a_redefinition(tmp_path, capsys):
    script = tmp_path / "cycle.mls"
    script.write_text(
        'setClass("X")\nsetClass("B")\nsetClass("C", contains = "B")\n'
        'setClass("B", contains = "X")\nsetClass("X", contains = "C")\n'
    )
    code, out, err = run_cli(["run", str(script)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: inheritance cycle through class 'X' (line 5, column 1)\n"


def test_run_seed_changes_stream(tmp_path, capsys):
    script = tmp_path / "draws.mls"
    script.write_text("rng_draw(3)\n")
    _, out_7a, _ = run_cli(["run", str(script), "--seed", "7"], capsys)
    _, out_7b, _ = run_cli(["run", str(script), "--seed", "7"], capsys)
    _, out_8, _ = run_cli(["run", str(script), "--seed", "8"], capsys)
    assert out_7a == out_7b
    assert out_7a != out_8


def test_run_assignments_are_silent(tmp_path, capsys):
    script = tmp_path / "quiet.mls"
    script.write_text("x <- 41\ninvisible(x)\nx + 1\n")
    code, out, _ = run_cli(["run", str(script)], capsys)
    assert code == 0
    assert out == "[1] 42\n"


def test_analyze_pure_corpus(corpus_dir, capsys):
    code, out, err = run_cli(["analyze", str(corpus_dir / "analyzer" / "pure")], capsys)
    assert code == 0
    assert "FUNCTIONAL" in out
    assert "NONFUNCTIONAL" not in out


def test_analyze_counter_fixture(corpus_dir, capsys):
    target = corpus_dir / "analyzer" / "impure" / "counter.mls"
    code, out, err = run_cli(["analyze", str(target)], capsys)
    assert code == 3
    assert "NonlocalAssignment at 4:5" in out


def test_analyze_uncertifiable_wins(corpus_dir, capsys):
    code, out, err = run_cli(["analyze", str(corpus_dir / "analyzer")], capsys)
    assert code == 4


def test_analyze_json_schema_and_stability(corpus_dir, capsys):
    args = ["analyze", str(corpus_dir / "analyzer"), "--format", "json"]
    code_a, out_a, _ = run_cli(args, capsys)
    code_b, out_b, _ = run_cli(args, capsys)
    assert code_a == code_b == 4
    assert out_a == out_b
    doc = json.loads(out_a)
    assert set(doc) == {"modules", "summary"}
    # keys are emitted in sorted order
    assert out_a == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_analyze_missing_path(capsys):
    code, out, err = run_cli(["analyze", "nope/"], capsys)
    assert code == 2


def test_analyze_a_directory_without_modules(tmp_path, capsys):
    assert run_cli(["analyze", str(tmp_path)], capsys) == (2, "", "error: no .mls modules found\n")


def test_analyze_duplicate_module_names(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "mod.mls").write_text("f <- function(x) x\n")
    (b / "mod.mls").write_text("g <- function(x) x\n")
    code, out, err = run_cli(["analyze", str(a), str(b)], capsys)
    assert code == 2
    assert "duplicate module" in err


def test_repl_session():
    stdin = io.StringIO("x <- 2\nx * 3\n:env\nf <- function(a) {\na + 1\n}\nf(9)\n)(\n:quit\n")
    stdout = io.StringIO()
    code = cli.cmd_repl(stdin=stdin, stdout=stdout)
    assert code == 0
    text = stdout.getvalue()
    assert "[1] 6" in text
    assert "x: [1] 2" in text
    assert "[1] 10" in text
    assert "error:" in text  # the malformed ')(' line
    # multi-line continuation prompt appeared
    assert "+ " in text


@pytest.mark.parametrize("end", [":quit\n1 + 1\n", ""])  # `1 + 1` never runs
def test_repl_through_main_previews_a_failing_field_as_an_error(monkeypatch, capsys, end):
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        'R <- setRefClass("R", fields = list(f = list(get = function() stop("bad"))))\n'
        "a <- R()\n:env\n" + end
    ))
    code, out, err = run_cli(["repl"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith('R: Generator for class "R"\na: <error: bad>\n> ')


def test_repl_continues_after_runtime_error():
    stdin = io.StringIO('stop("ouch")\n1 + 1\n:quit\n')
    stdout = io.StringIO()
    cli.cmd_repl(stdin=stdin, stdout=stdout)
    text = stdout.getvalue()
    assert "error: ouch" in text
    assert "[1] 2" in text


def test_main_leaves_the_host_recursion_limit_unchanged(corpus_dir, capsys):
    previous = sys.getrecursionlimit()
    assert run_cli(["run", str(corpus_dir / "money.mls")], capsys)[0] == 0
    assert sys.getrecursionlimit() == previous


def _nested_list_repl(depth):
    return (f"x <- list(); i <- 0; while (i < {depth}) {{ x <- list(x); i <- i + 1 }}\n"
            ":env\n1 + 1\n:quit\n")


def test_repl_env_preview_runs_on_the_deep_host_stack():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    stdout = io.StringIO()
    try:
        with no_host_recursion():
            assert cli.cmd_repl(stdin=io.StringIO(_nested_list_repl(1500)), stdout=stdout) == 0
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(previous)
    assert "i: [1] 1500\nx: [[1]]\n> [1] 2\n" in stdout.getvalue()


def test_repl_env_preview_of_too_deep_a_value_is_an_error_preview():
    proc = subprocess.run(
        [sys.executable, "-m", "mls", "repl"],
        input=_nested_list_repl(30_000),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "x: <error: evaluation nested too deeply>\n> [1] 2\n" in proc.stdout


def test_console_entry_point(corpus_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "mls", "run", str(corpus_dir / "factorial.mls")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "120" in proc.stdout


def test_deep_parenthesis_nesting_runs_and_analyzes(tmp_path):
    # 2 host frames per level of parentheses; at 4, the reader stopped
    # at 5,997 levels
    depth = 6500
    script = tmp_path / "nested.mls"
    script.write_text(f"f <- function(x) {'(' * depth}x{')' * depth}\nf(1)\n")
    for command in ("run", "analyze"):
        proc = subprocess.run(
            [sys.executable, "-m", "mls", command, str(script)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr[-300:]


@pytest.mark.parametrize(
    "source, code, out, err",
    [
        ("y <- 1 + \u00b2\n", 2, "", "error: unexpected character '\u00b2' (line 1, column 10)\n"),
        ("x\u00b2 <- 1; x\u00b2\n", 0, "[1] 1\n", ""),
        ('s <- "a\\\nb"\nnope\n', 1, "", "error: object 'nope' not found (line 3, column 1)\n"),
        ("f <- function() 1; f()[1] <- 2\n", 2, "",
         "error: indexed assignment requires a named object (line 1, column 27)\n"),
        ("f() <- 1\n", 2, "", "error: invalid assignment target (line 1, column 5)\n"),
        ("1 + x <- 2\n", 2, "", "error: invalid assignment target (line 1, column 7)\n"),
    ],
)
def test_reader_edge_cases_through_the_cli(tmp_path, capsys, source, code, out, err):
    script = tmp_path / "edge.mls"
    script.write_text(source, encoding="utf-8")
    assert run_cli(["run", str(script)], capsys) == (code, out, err)


@pytest.mark.parametrize(
    "source, out, err",
    [
        ("length(NULL)", "[1] 0\n", ""),
        ("length(function(x) x)", "[1] 1\n", ""),
        ("is_null(NULL)", "[1] TRUE\n", ""),
        ('attr(set_attr(1, "units", "cm"), "units")', '[1] "cm"\n', ""),
        ("names(-c(a = 1, b = 2))", '[1] "a" "b"\n', ""),
        ('names(c(set_attr(c(1, 2), "names", c("", "")), 3))', "NULL\n", ""),
        ("l <- list(a = 1); l$a <- NULL; names(l)", "NULL\n", ""),
        ("f <- function() list(); f()$x <- 1",
         "", "cannot assign to a field of a temporary value (line 1, column 25)"),
        ("x <- 1; x$f <- 2",
         "", "cannot set a field on an object of class 'integer' (line 1, column 9)"),
        ('UseMethod("f")', "", "UseMethod called from outside a function (line 1, column 1)"),
        ('f <- function() UseMethod("f"); f()', "",
         "UseMethod('f') requires a function with at least one argument (line 1, column 17)"),
        ('setMethod("nog", "numeric", function(x) x)',
         "", "no generic function 'nog' is defined (line 1, column 1)"),
        ('setGeneric("g", function(x) standardGeneric("g")); setMethod("g", "numeric", 5)',
         "", "method implementation must be a function (line 1, column 52)"),
        ('slot(1, "x")', "", "slot() requires a formally classed object (line 1, column 1)"),
        ('slot_set(1, "x", 2)',
         "", "slot_set() requires a formally classed object (line 1, column 1)"),
        ("if (0/0) 1", "", "missing value where TRUE/FALSE needed (line 1, column 5)"),
        ("if (c(TRUE)[c(FALSE)]) 1", "", "argument is of length zero (line 1, column 5)"),
        ('!"a"', "", "invalid argument type to '!' (line 1, column 1)"),
        ('-"a"', "", "invalid argument to unary operator (line 1, column 1)"),
        ('+"a"', "", "invalid argument to unary operator (line 1, column 1)"),
        ('G <- setRefClass("G", fields = list(f = "function")); G()',
         "", "field 'f' of class 'G' requires an explicit value (line 1, column 55)"),
        ('G <- setRefClass("G", fields = list()); G$foo',
         "", "unknown generator field 'foo' (line 1, column 41)"),
        ("x <- c(1, 2); x[c(TRUE)]",
         "", "logical index length 1 does not match length 2 (line 1, column 15)"),
        ('x <- c(1, 2); x["a"]',
         "", "cannot index by name: object has no names (line 1, column 15)"),
        ('x <- c(a = 1); x["z"]', "", "undefined name 'z' in index (line 1, column 16)"),
        ("x <- c(1, 2); x[list(1)]", "", "invalid index type (line 1, column 15)"),
        ("x <- c(1, 2); x[1, 2]", "", "matrix indexing is not supported (line 1, column 15)"),
        ("x <- NULL; x[1]", "", "cannot index NULL (line 1, column 12)"),
        ("x <- c(1, 2); x[1] <- list(3)",
         "", "replacement value must be a vector (line 1, column 15)"),
        ("x <- c(1, 2, 3); x[c(1, 2)] <- c(7, 8, 9)",
         "", "replacement length 3 does not match 2 positions (line 1, column 18)"),
        ("l <- list(1, 2); l[c(1, 2)] <- 5",
         "", "list assignment requires a single position (line 1, column 18)"),
        ("sum(list(1))", "", "invalid argument to sum() (line 1, column 1)"),
        ('setGeneric("k", function(x, y) standardGeneric("k"), signature = c("y", "q"))',
         "", "dispatch argument 'q' is not a formal argument of 'k' (line 1, column 1)"),
        ('setGeneric("k", function(x, y) standardGeneric("k")); '
         'setMethod("k", "numeric", function(x, y) x)',
         "", "method signature for 'k' must have 2 classes, got 1 (line 1, column 55)"),
        ('setClass("A", slots = 5)', "", "slots must be a named list (line 1, column 1)"),
        ('setClass("V", virtual = TRUE); new("V")', "",
         'cannot allocate an object of a virtual class ("V") (line 1, column 32)'),
        ('new("numeric", x = 1)',
         "", "cannot pass slot values to basic class 'numeric' (line 1, column 1)"),
        ('setRefClass("Q", fields = list(a = list(get = 1)))',
         "", "active field 'a' requires function accessors (line 1, column 1)"),
        ('setRefClass("Q", fields = list(a = 1))',
         "", "invalid specification for field 'a' (line 1, column 1)"),
        ("`&&`(TRUE)", "", "'&&' requires two unnamed arguments (line 1, column 1)"),
        ("rng_draw(20000000)",
         "", "invalid count for rng_draw: more than 16777216 draws (line 1, column 1)"),
        ('foreign(tag = "identity")',
         "", "foreign() requires a tag as its first argument (line 1, column 1)"),
        # Each input below runs a statement of the value layer, of a builtin,
        # of the formal class model or of reference classes that no other
        # test runs; the comment names the function that holds it.
        # ops.index_assign
        ("x <- c(1, 2); x[1, 2] <- 3", "", "matrix indexing is not supported (line 1, column 15)"),
        ("f <- function() 1; f[1] <- 2",
         "", "object of class 'function' is not subsettable (line 1, column 20)"),
        # ops._list_index_assign, ops.field_assign_list
        ('l <- list(a = 1, b = 2); l["a"] <- 5; l$a', "[1] 5\n", ""),
        ("x <- NULL; x$a <- 1; x", "$a\n[1] 1\n\n", ""),
        # builtins._scalar_string, _scalar_int
        ("attr(1, 2)", "", "attribute name must be a single string (line 1, column 1)"),
        ("el(c(5, 6), 2.0)", "[1] 6\n", ""),
        # builtins._bi_paste, _bi_el, _bi_stop
        ("paste(NULL, 1)", '[1] "1"\n', ""),
        ("paste(list(1))", "", "paste() requires vector arguments (line 1, column 1)"),
        ("el(NULL, 1)", "", "el() requires a list or vector (line 1, column 1)"),
        ("el(c(1, 2), 3)", "", "index 3 out of bounds (length 2) (line 1, column 1)"),
        ("stop()", "", "error (line 1, column 1)"),
        # builtins._bi_set_class, _bi_set_generic, _bi_set_method, _bi_new
        ('setClass("A", contains = 1)',
         "", "contains must be a character vector (line 1, column 1)"),
        ('setGeneric("length")', "", "setGeneric('length') needs an explicit def: "
         "no existing function to adopt (line 1, column 1)"),
        ('setGeneric("nope")', "", "setGeneric('nope') needs an explicit def: "
         "no existing function to adopt (line 1, column 1)"),
        ('setGeneric("g", 1)', "", "def must be a function (line 1, column 1)"),
        # Interpreter.print_value
        ("print <<- 1; 2", "", "could not find function 'print'"),
        ('setGeneric("h", function(x) x + 1); h(3)', "[1] 4\n", ""),
        ('setGeneric("k", function(x) standardGeneric("k"), signature = 1)',
         "", "signature must be a character vector (line 1, column 1)"),
        ('setGeneric("k", function(x) standardGeneric("k")); setMethod("k", 1, function(x) x)',
         "", "signature must be a nonempty character vector (line 1, column 52)"),
        ('new(x = "A")', "", "new() requires a class name as its first argument (line 1, column 1)"),
        # s4.Registry.define_method, s4.declared_members
        ('setClass("P", slots = list(x = "numeric")); '
         'setGeneric("area", function(s) standardGeneric("area")); '
         'setMethod("area", "Q", function(s) 1)',
         "", "undefined class 'Q' in method signature (line 1, column 102)"),
        ('setClass("P", slots = list(1))', "", "every slot must be named (line 1, column 1)"),
        # s4.new_instance, s4.slot_get, s4.slot_set
        ('new("Nope")', "", 'undefined class "Nope" (line 1, column 1)'),
        ('new("environment")',
         "", "cannot instantiate basic class 'environment' (line 1, column 1)"),
        ('setClass("P", slots = list(x = "numeric")); new("P", 1)',
         "", 'unnamed argument in new("P") (line 1, column 45)'),
        ('setClass("P", slots = list(x = "numeric")); new("P", x = 1, x = 2)',
         "", "slot 'x' initialized twice (line 1, column 45)"),
        ('setClass("P", slots = list(x = "numeric")); slot(new("P", x = 1), "y")',
         "", "no slot 'y' in an object of class \"P\" (line 1, column 45)"),
        ('setClass("P", slots = list(x = "numeric")); slot_set(new("P", x = 1), "y", 2)',
         "", "no slot 'y' in an object of class \"P\" (line 1, column 45)"),
        # refclasses._parse_field_spec, set_ref_class
        ('setRefClass("R", fields = list(a = list(class = 1)))',
         "", "invalid class declaration for field 'a' (line 1, column 1)"),
        ('setRefClass("R", contains = c("A", "B"))',
         "", "contains must be a single class name (line 1, column 1)"),
        ('setRefClass("R", methods = list(m = 1))',
         "", "method 'm' must be a function (line 1, column 1)"),
        # refclasses._current, generator_new
        ('R <- setRefClass("R", fields = list(a = "numeric")); '
         'setClass("R", slots = list(x = "numeric")); R()',
         "", "unknown reference class 'R' (line 1, column 98)"),
        ('R <- setRefClass("R", fields = list(a = "numeric")); R(1)',
         "", "unnamed argument in constructor for 'R' (line 1, column 54)"),
        ('R <- setRefClass("R", fields = list(a = "numeric")); R(a = 1, a = 2)',
         "", "field 'a' initialized twice (line 1, column 54)"),
    ],
)
def test_run_edge_values_and_errors(tmp_path, capsys, source, out, err):
    script = tmp_path / "edge.mls"
    script.write_text(source + "\n")
    code = 1 if err else 0
    err = f"error: {err}\n" if err else ""
    assert run_cli(["run", str(script)], capsys) == (code, out, err)


@pytest.mark.parametrize(
    "source, code, message",
    [
        ("x <- " + "+".join(["1"] * 8000) + "\n", 1, "evaluation nested too deeply (line 1"),
        # each level costs the reader at least one host frame
        ("x <- " + "(" * HOST_RECURSION_LIMIT + "1" + ")" * HOST_RECURSION_LIMIT + "\n", 2,
         "expression nested too deeply"),
        # the reader takes one host frame per prefix operator, evaluation more
        ("x <- " + "-" * 15000 + "1\n", 1, "evaluation nested too deeply (line 1, column 1)"),
    ],
    ids=["sum", "parens", "prefix"],
)
def test_host_recursion_is_an_mls_error_not_a_traceback(tmp_path, capsys, source, code, message):
    script = tmp_path / "deep.mls"
    script.write_text(source)
    with no_host_recursion():
        got, out, err = run_cli(["run", str(script)], capsys)
    assert got == code
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_overlong_integer_literal_is_a_syntax_error(tmp_path, capsys, int_digit_limit, command):
    script = tmp_path / "long.mls"
    script.write_text("f <- function() " + "1" * (int_digit_limit + 1) + "\n")
    code, out, err = run_cli([command, str(script)], capsys)
    prefix = f"{script}: " if command == "analyze" else ""
    assert (code, out) == (2, "")
    assert err == (
        f"error: {prefix}integer literal too long ({int_digit_limit + 1} digits)"
        " (line 1, column 17)\n"
    )


def test_host_exception_is_one_internal_error_line(tmp_path, capsys, monkeypatch):
    def broken_sum(v, loc=None):
        raise ValueError("host failure")

    monkeypatch.setattr(ops, "vector_sum", broken_sum)
    script = tmp_path / "sum.mls"
    script.write_text("x <- 1\nsum(x)\n")
    code, out, err = run_cli(["run", str(script)], capsys)
    assert (code, out) == (5, "")
    assert err == "internal error: ValueError: host failure\n"


def test_integer_overflow_is_an_error_at_the_operator(tmp_path, capsys):
    # 10 squared 5 times is 10^32, beyond the integer bound
    script = tmp_path / "big.mls"
    script.write_text("x <- 10\n" + "x <- x * x\n" * 13 + "paste(x)\n")
    code, out, err = run_cli(["run", str(script)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: integer overflow in '*' (line 6, column 6)\n"


def test_infinite_index_and_overflowing_sum_end_in_mls_exit_codes(tmp_path, capsys):
    script = tmp_path / "inf.mls"
    script.write_text("sum(c(1/0, -1/0))\nsum(c(1e308, 1e308))\n")
    assert run_cli(["run", str(script)], capsys) == (0, "[1] NaN\n[1] Inf\n", "")
    script.write_text("x <- c(1, 2)\nx[-1/0] <- 3\n")
    assert run_cli(["run", str(script)], capsys) == (
        1, "", "error: invalid index -Inf (line 2, column 1)\n"
    )


def _limit_address_space():
    limit = 3 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_c_past_the_length_bound_is_an_error_before_it_allocates(tmp_path):
    """Doubling a vector with `c()` stops at `values.MAX_LENGTH` with an
    MLS error; without the bound it ran out of a 3 GB address space (set
    on the child only) and ended in a host MemoryError, exit 5."""
    script = tmp_path / "grow.mls"
    script.write_text("x <- c(1); i <- 0; while (i < 40) { x <- c(x, x); i <- i + 1 }\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mls", "run", str(script)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: c() would build more than 16777216 elements (line 1, column 42)\n"


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away, as behind `| head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_closed_stdout_exits_1_without_a_message(corpus_dir, monkeypatch, capsys, command):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    target = corpus_dir / ("refobjects.mls" if command == "run" else "analyzer")
    assert cli.main([command, str(target)]) == 1
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_1_without_a_message(corpus_dir):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "mls", "run", str(corpus_dir / "factorial.mls")],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert (proc.returncode, proc.stderr) == (1, "")


# -- every input ends in a documented exit code, never a traceback ------------

_SOUP_TOKENS = (
    list(reader._MULTI_OPS) + list(reader._SINGLE_OPS)
    + sorted(syntax.KEYWORDS - {"while"})  # a soup must not loop forever
    + ["x", "y", "f", "c", "print", "list", "`a b`", "0", "1", "2.5", "1e3", '"s"', "'t'"]
    + ["\n", "# note\n"]
)

_NESTS = {
    "parentheses": lambda d: "(" * d + "x" + ")" * d,
    "calls": lambda d: "g(" * d + "x" + ")" * d,
    "indexing": lambda d: "x[" * d + "1" + "]" * d,
    "blocks": lambda d: "{" * d + "x" + "}" * d,
    "if": lambda d: "if (TRUE) " * d + "x",
    "function literals": lambda d: "function() " * d + "x",
    "minus chain": lambda d: "-" * d + "x",
    "not chain": lambda d: "!" * d + "x",
}


def _assert_clean_exit(command, source):
    """`mls <command>` on `source`, in this process: a documented exit
    code (0-4) and no traceback on either stream.  Returns the exit code
    and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "prog.mls"
        script.write_text(source, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(script)])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["run", "analyze"]),
    st.lists(st.sampled_from(_SOUP_TOKENS), max_size=30).map(" ".join),
)
def test_token_soups_end_in_a_documented_exit_code(command, source):
    _assert_clean_exit(command, source)


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("nest", sorted(_NESTS))
def test_deep_nesting_ends_in_a_documented_exit_code(command, nest):
    body = _NESTS[nest](5000)
    _assert_clean_exit(command, f"g <- function(y) y\nf <- function(x) {body}\nf(1)\n")


# host frames the reader takes per level of each form (reader.py's docstring)
_FRAMES_PER_LEVEL = {
    "calls": 2, "indexing": 1, "parentheses": 2, "if": 3, "function literals": 3, "blocks": 3,
}


@pytest.mark.parametrize("nest", sorted(_FRAMES_PER_LEVEL))
def test_nesting_just_under_the_reader_limit_parses_and_ends_cleanly(nest):
    # 200 frames below the limit leave room for the test's own stack
    depth = (HOST_RECURSION_LIMIT - 200) // _FRAMES_PER_LEVEL[nest]
    source = f"g <- function(y) y\nf <- function(x) {_NESTS[nest](depth)}\nf(1)\n"
    with no_host_recursion():
        assert len(reader.parse_program(source)) == 3
        for command in ("run", "analyze"):
            code, err = _assert_clean_exit(command, source)
            assert code == 0 or "nested too deeply" in err, err[-300:]


def _mls_subprocess(command, tmp_path, source):
    script = tmp_path / "deep.mls"
    script.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "mls", command, str(script)], capture_output=True, text=True
    )


def test_printing_a_closure_nested_7990_calls_deep(tmp_path):
    body = "g(" * 7990 + "x" + ")" * 7990
    proc = _mls_subprocess("run", tmp_path, f"f <- function(x) {body}\nf\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"function(x) {body}\n"


def test_analyzing_a_superassignment_nested_11980_calls_deep(tmp_path):
    body = "g(" * 11980 + "x" + ")" * 11980
    proc = _mls_subprocess("analyze", tmp_path, f"f <- function(x) z <<- {body}\n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: function 'f' nested too deeply")
    assert "Traceback" not in proc.stdout + proc.stderr
