import gc
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    collector_paused,
    differential_check,
    load_universe,
    reference_scan_function,
    report_as_dict,
)
from mls import purity, reader, syntax, values
from mls.builtins import BUILTIN_NAMES
from mls.interpreter import Interpreter
from mls.values import MlsError
from test_reader import _extend, _leaves, _names


def module_of(src, name="m"):
    return purity.parse_module(name, src)


def analyze(src, name="m", others=(), policy=None):
    return purity.analyze_modules([module_of(src, name), *others], policy)


def verdict_of(report, fname, mname="m"):
    for name, reports in report.modules:
        if name != mname:
            continue
        for fr in reports:
            if fr.name == fname:
                return fr
    raise AssertionError(f"no report for {mname}.{fname}")


# -- scanning ------------------------------------------------------------------

def scan(src):
    literal = reader.parse_one(src)
    assert isinstance(literal, syntax.FunctionLiteral)
    return purity.scan_function("f", literal)


def test_scan_superassignment():
    facts = scan("function(x) { x <<- 1 }")
    kinds = [v.kind for v in facts.violations]
    assert kinds == [purity.NONLOCAL_ASSIGNMENT]
    assert facts.violations[0].line == 1


def test_scan_pure_body_has_no_facts():
    facts = scan("function(x) x + 1")
    assert facts.violations == []
    assert facts.callees == []
    assert facts.name_uses == {"+": (1, 15)}  # an operator call is a use of its name


def test_scan_records_callees_and_free_names():
    facts = scan("function(n) helper(n) + stray")
    assert [c.callee.name for c in facts.callees] == ["helper"]
    assert list(facts.name_uses) == ["+", "stray"]


def test_scan_backquoted_function_call_is_a_callee():
    # only the reader makes function literals; this is an ordinary call
    facts = scan("function(x) `function`(x)")
    assert [c.callee.name for c in facts.callees] == ["function"]


@pytest.mark.parametrize("call", ["`<-`(x, 1)", "`<<-`(x, 1)", "`if`(TRUE, 1)", "`{`(1)",
                                  "`<-`(x)", "`<<-`(x)", "`<-`()"])
def test_a_backquoted_syntax_name_is_an_ordinary_callee(call):
    """Only the reader makes assignments and control nodes: called by its
    name, `<-` or `if` is a function that no module defines."""
    report = analyze(f"f <- function() {call}")
    head = call[1:call.index("`", 1)]
    reason = verdict_of(report, "f").verdict.reasons[0]
    assert (reason.kind, reason.column) == (purity.GLOBAL_REFERENCE, 17)
    assert reason.detail.startswith(f"'{head}' resolves to no local")
    with pytest.raises(MlsError, match=f"could not find function '{head}'"):
        Interpreter().eval_source(call)


_IMPURE_OPERATORS = """
`+` <- function(a, b) { counter <<- 1; 0 }
`!` <- function(a) { counter <<- 2; TRUE }
`&&` <- function(a, b) { counter <<- 3; FALSE }
plus <- function(x) x + 1
negate <- function(x) !x
both <- function(x) x && TRUE
nested <- function(x) { g <- function(y) y + 1; g(x) }
rebound <- function(x) { `+` <- function(a, b) a; x + 1 }
minus <- function(x) -x * 2
"""


def test_an_operator_call_is_a_call_of_the_operator_the_module_defines():
    report = analyze(_IMPURE_OPERATORS)
    for caller, op in [("plus", "+"), ("negate", "!"), ("both", "&&"), ("nested", "+")]:
        verdict = verdict_of(report, caller).verdict
        assert (verdict.status, verdict.via) == (purity.NONFUNCTIONAL, [op]), caller
        assert [v.kind for v in verdict.reasons] == [purity.NONLOCAL_ASSIGNMENT]
    # the interpreter agrees: each caller runs the module's operator
    for caller, op in [("plus", "+"), ("negate", "!"), ("both", "&&")]:
        interp = load_universe([module_of(_IMPURE_OPERATORS)])
        interp.eval_source(f"counter <- 0; {caller}(TRUE)")
        assert interp.global_env.frame["counter"].payload == [
            {"+": 1, "!": 2, "&&": 3}[op]], caller
    functional = [fr.name for _, reports in report.modules for fr in reports
                  if fr.verdict.status == purity.FUNCTIONAL]
    assert functional == ["rebound", "minus"]
    for name in functional:
        assert differential_check([module_of(_IMPURE_OPERATORS)], f"{name}(3)").payload == [
            {"rebound": 3, "minus": -6}[name]]


def test_scan_nested_function_facts_merge():
    facts = scan("function() { g <- function() { n <<- 1 }; 42 }")
    assert [v.kind for v in facts.violations] == [purity.NONLOCAL_ASSIGNMENT]


def test_scan_computed_callee():
    facts = scan("function(fs, x) (el(fs, 1))(x)")
    assert [v.kind for v in facts.violations] == [purity.DYNAMIC_CODE]


def test_scan_locals_shadow_resolution():
    facts = scan("function() { helper <- function(v) v; helper(1) }")
    assert facts.callees == []
    assert facts.name_uses == {}


def test_scan_option_name_extraction():
    reason = verdict_of(analyze('f <- function() get_option("tol")'), "f").verdict.reasons[0]
    assert (reason.kind, reason.detail, reason.subject) == (
        purity.STATE_READ, "reads option 'tol'", "tol")


def test_scan_assign_envir_detection():
    verdict = verdict_of(analyze('f <- function(v, e) assign("x", v, e)'), "f").verdict
    assert [v.kind for v in verdict.reasons] == [purity.NONLOCAL_ASSIGNMENT]
    verdict = verdict_of(analyze('f <- function(v) assign("x", v)'), "f").verdict
    assert verdict.status == purity.FUNCTIONAL


def _facts_fields(facts):
    return facts.name, facts.violations, facts.callees, list(facts.name_uses.items())


def assert_scan_matches_the_reference(literal):
    """The one-walk scan against the two-pass reference: every field, in order."""
    got = purity.scan_function("f", literal)
    want = reference_scan_function("f", literal)
    assert _facts_fields(got) == _facts_fields(want)


@pytest.mark.parametrize(
    "src, free",
    [
        # a backquoted `<-` or `<<-` is an ordinary call, and an
        # assignment inside its arguments binds a local
        ("function() { `<-`(h(y <- 1), y + w); y }", ["+", "w"]),
        ('function() { `<<-`(h(assign("z", 1)), z); z + w }', ["+", "w"]),
        ("function() { `<-`(h(function() v <- 1), 2); v }", ["v"]),
        # an assignment in a formal default binds no local
        ("function(a = (b <- 1)) b", ["b"]),
        ("function(a = (b <- 1), c = b) c", ["b"]),
        # a local assigned after its first use is still local
        ("function() { print(x); x <- 1 }", []),
        ('function() { u; assign("u", 2) }', []),
        # a nested function reads a local its enclosing function assigns later
        ("function() { g <- function() x + k; x <- 1; g() }", ["+", "k"]),
        ("function() { g <- function(h) h(1) + k(2); g }", ["+"]),
        ("function(p) { g <- function(q = x) { h <- function() p + q + x + m; h }; x <- 1 }",
         ["+", "m"]),
    ],
)
def test_scan_binds_locals_as_the_two_pass_scan_did(src, free):
    literal = reader.parse_one(src)
    assert list(purity.scan_function("f", literal).name_uses) == free
    assert_scan_matches_the_reference(literal)


def _extend_for_scan(children):
    """`test_reader`'s trees plus calls the scan must tell apart:
    backquoted `<-` and `<<-` calls, which are ordinary calls, assign()
    with a literal name, and calls of names a formal binds."""
    of_formal = st.builds(
        lambda head, a: syntax.Call(syntax.Symbol(head), [(None, a)]),
        st.sampled_from(["p", "q", "r", "x"]), children,
    )
    two = st.builds(
        lambda head, t, v: syntax.Call(syntax.Symbol(head), [(None, t), (None, v)]),
        st.sampled_from(["<-", "<<-"]), children, children,
    )
    assign = st.builds(
        lambda n, v, rest: syntax.Call(
            syntax.Symbol("assign"),
            [(None, syntax.Constant(values.scalar_string(n))), (None, v), *rest],
        ),
        _names, children, st.sampled_from([[], [("envir", syntax.Symbol("e"))]]),
    )
    return st.one_of(_extend(children), of_formal, two, assign)


_scan_trees = st.recursive(_leaves, _extend_for_scan, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["p", "x", "zed"]), st.none() | _scan_trees),
                max_size=2, unique_by=lambda f: f[0]), _scan_trees)
def test_scan_matches_the_two_pass_scan(formals, body):
    # reparsed from its deparse, so that every node has its source location
    literal = reader.parse_one(syntax.deparse(syntax.FunctionLiteral(formals, body)))
    assert_scan_matches_the_reference(literal)


# -- builtin calls, read as the interpreter matches them ----------------------------

def _run_recorded(builtin, module_src, call_src):
    """The arguments `Interpreter.call_value` matched to the formals of
    `builtin` at each of its calls, while `call_src` runs after
    `module_src`; a call it rejects never reaches the builtin."""
    interp = Interpreter()
    payload = interp.base_env.frame[builtin].value.payload
    seen, fn = [], payload.fn

    def record(interp, env, loc, **matched):
        seen.append(matched)
        return fn(interp, env, loc, **matched)

    payload.fn = record
    interp.eval_source(module_src)
    try:
        interp.eval_source(call_src)
    except MlsError:
        pass
    return seen


def _shapes(actuals):
    """Every argument list of the (formal, source) pairs `actuals`: each
    passed by name or by position, in every order."""
    for order in itertools.permutations(actuals):
        for named in itertools.product([False, True], repeat=len(order)):
            yield ", ".join(f"{f} = {a}" if n else a for (f, a), n in zip(order, named))


# calls the interpreter rejects: a missing, duplicated or unknown formal, or
# an argument left over
_REJECTED_ASSIGNS = ['"x"', 'value = "y"', '"x", "y", e, 1', 'name = "x", name = "z", "y"',
                     '"x", "y", where = e']


@pytest.mark.parametrize("args", [*_shapes([("name", '"x"'), ("value", '"y"')]),
                                  *_shapes([("name", '"x"'), ("value", '"y"'), ("envir", "e")]),
                                  *_shapes([("name", '"x"'), ("value", '"y"'), ("envir", "NULL")]),
                                  *_shapes([("name", '"x"'), ("value", '"y"'), ("envir", "1")]),
                                  *_REJECTED_ASSIGNS])
def test_assign_is_nonlocal_exactly_when_the_interpreter_binds_envir(args):
    """The interpreter binds `envir` when it records an environment there;
    any other value but NULL makes the call fail."""
    src = f"f <- function(e) {{ assign({args}); x }}"
    verdict = verdict_of(analyze(src), "f").verdict
    kinds = [v.kind for v in verdict.reasons]
    seen = _run_recorded("assign", src, "f(globalenv())")
    binds_envir = bool(seen) and seen[0]["envir"].kind == values.ENVIRONMENT
    assert (purity.NONLOCAL_ASSIGNMENT in kinds) == binds_envir
    if not binds_envir:
        # only the literal the interpreter binds to `name` is a local
        local_x = bool(seen) and seen[0]["name"] == values.scalar_string("x")
        assert (purity.GLOBAL_REFERENCE in kinds) == (not local_x)
    if verdict.status == purity.FUNCTIONAL and seen and values.is_null(seen[0]["envir"]):
        assert differential_check([module_of(src)], "f(globalenv())").payload == ["y"]


@pytest.mark.parametrize("call", [
    *(f"options({args})" for args in _shapes([("name", '"tol"'), ("value", '"v"')])),
    *(f"get_option({args})" for args in _shapes([("name", '"tol"')])),
    'options("tol")', 'options(name = "a", name = "b")', 'options("tol", "v", 1)',
    "get_option()", 'get_option("tol", "v")', 'get_option(nm = "tol")',
])
def test_the_option_named_is_the_one_the_interpreter_binds(call):
    src = f"f <- function() {call}"
    reasons = verdict_of(analyze(src), "f").verdict.reasons
    seen = _run_recorded(call[:call.index("(")], src, "f()")
    assert [v.subject for v in reasons if v.kind == purity.STATE_READ] == [
        matched["name"].payload[0] for matched in seen
    ]


@pytest.mark.parametrize("call", [
    'assign(value = 1, "x", e)', 'assign("x", value = 1, e)', 'assign(name = "x", 1, e)',
])
def test_assign_given_its_environment_by_position_is_nonlocal(call):
    verdict = verdict_of(analyze(f"f <- function(e) {call}"), "f").verdict
    assert verdict.status == purity.NONFUNCTIONAL
    assert [v.kind for v in verdict.reasons] == [purity.NONLOCAL_ASSIGNMENT]


def test_the_local_assign_binds_is_its_name_not_its_value():
    verdict = verdict_of(analyze('g <- function() { assign(value = "y", "x"); y }'), "g").verdict
    assert verdict.status == purity.NONFUNCTIONAL
    assert [(v.kind, v.detail) for v in verdict.reasons] == [
        (purity.GLOBAL_REFERENCE, "'y' resolves to no local, module definition, import, or builtin")
    ]


def test_a_name_assign_writes_into_envir_is_no_local():
    """The interpreter writes `x` into `e`, so the later read of `x` is free."""
    verdict = verdict_of(analyze('f <- function(e) { assign("x", 1, e); x }'), "f").verdict
    assert [(v.kind, v.line, v.column) for v in verdict.reasons] == [
        (purity.NONLOCAL_ASSIGNMENT, 1, 20), (purity.GLOBAL_REFERENCE, 1, 39)
    ]
    assert_scan_matches_the_reference(reader.parse_one('function(e) { assign("x", 1, e); x }'))


@pytest.mark.parametrize("call, detail", [
    ('foreign("ext", x)', "calls foreign('ext')"),
    ('foreign(tag = "ext", x)', "calls foreign code"),  # the interpreter rejects a named tag
    ('foreign(x, "ext")', "calls foreign code"),
])
def test_the_foreign_tag_is_an_unnamed_first_argument(call, detail):
    verdict = verdict_of(analyze(f"f <- function(x) {call}"), "f").verdict
    assert verdict.status == purity.UNCERTIFIABLE
    assert [(v.kind, v.detail) for v in verdict.reasons] == [(purity.FOREIGN_CODE, detail)]


# -- resolution ------------------------------------------------------------------

def test_rng_builtin_flagged():
    report = analyze("f <- function(n) rng_draw(n)")
    fr = verdict_of(report, "f")
    assert fr.verdict.status == purity.NONFUNCTIONAL
    assert fr.verdict.reasons[0].kind == purity.RNG_DEPENDENCE


def test_module_internal_call_is_edge_not_violation():
    report = analyze("g <- function(x) x\nf <- function(x) g(x)")
    assert verdict_of(report, "f").verdict.status == purity.FUNCTIONAL
    assert (("m", "f"), ("m", "g")) in report.edges


def test_unresolved_name_is_global_reference():
    report = analyze("f <- function(x) mystery_fn(x)")
    fr = verdict_of(report, "f")
    assert fr.verdict.reasons[0].kind == purity.GLOBAL_REFERENCE


def test_import_resolves_cross_module():
    lib = module_of("helper <- function(x) x + 1", "lib")
    report = analyze("import lib (helper)\nf <- function(x) helper(x)", others=[lib])
    assert verdict_of(report, "f").verdict.status == purity.FUNCTIONAL


def test_import_of_impure_function_propagates():
    lib = module_of("helper <- function(x) x + rng_draw(1)", "lib")
    report = analyze("import lib (helper)\nf <- function(x) helper(x)", others=[lib])
    fr = verdict_of(report, "f")
    assert fr.verdict.status == purity.NONFUNCTIONAL
    assert fr.verdict.via == ["helper"]


def test_import_of_missing_name():
    lib = module_of("helper <- function(x) x", "lib")
    report = analyze("import lib (nothere)\nf <- function(x) nothere(x)", others=[lib])
    assert verdict_of(report, "f").verdict.reasons[0].kind == purity.GLOBAL_REFERENCE


_MAKE = "make <- function() function(x) { counter <<- x; x }\n"


@pytest.mark.parametrize(
    "lib_src, src, status, reasons",
    [
        # a module's own non-function binding, called
        ("helper <- function(x) x", "k <- 3\nf <- function(x) k(x)", purity.UNCERTIFIABLE,
         [(purity.DYNAMIC_CODE, "'k' is not a statically defined function")]),
        # the same binding reached through an import
        ("k <- 3", "import lib (k)\nf <- function(x) k(x)", purity.UNCERTIFIABLE,
         [(purity.DYNAMIC_CODE, "'k' is not a statically defined function")]),
        # a name the imported module does not define
        ("k <- 3", "import lib (nothere)\nf <- function(x) nothere(x)", purity.NONFUNCTIONAL,
         [(purity.GLOBAL_REFERENCE, "'nothere' is not defined by module 'lib'")]),
        # a module's own binding shadows an import of the same name
        ("helper <- function(x) rng_draw(x)",
         "import lib (helper)\nhelper <- function(x) x\nf <- function(x) helper(x)",
         purity.FUNCTIONAL, []),
        # an operator the module binds to a computed value: its callers may run it
        ("helper <- function(x) x",
         "make <- function() function(a, b) 0\n`+` <- make()\nf <- function(x) x + 1",
         purity.UNCERTIFIABLE, [(purity.DYNAMIC_CODE, "'+' is not a statically defined function")]),
        # a computed value read, not called: it may be any function, an impure one among them
        ("helper <- function(x) x", _MAKE + "h <- make()\nf <- function(x) { k <- h; k(x) }",
         purity.UNCERTIFIABLE, [(purity.DYNAMIC_CODE, "'h' is bound to a computed value")]),
        # the same binding reached through an import
        (_MAKE + "h <- make()", "import lib (h)\nf <- function(x) { k <- h; k(x) }",
         purity.UNCERTIFIABLE, [(purity.DYNAMIC_CODE, "'h' is bound to a computed value")]),
        # a function literal rebound to a computed value: the definition is not the binding
        ("helper <- function(x) x",
         _MAKE + "h <- function(x) x\nh <- make()\nf <- function(x) { k <- h; k(x) }",
         purity.UNCERTIFIABLE, [(purity.DYNAMIC_CODE, "'h' is bound to a computed value")]),
        # the same binding, called directly
        ("helper <- function(x) x",
         _MAKE + "h <- function(x) x\nh <- make()\nf <- function(x) h(x)",
         purity.UNCERTIFIABLE, [(purity.DYNAMIC_CODE, "'h' is not a statically defined function")]),
        # a constant is no function
        ("helper <- function(x) x",
         "tol <- 0.5\nhelper <- function(x) x\nf <- function(x) helper(x) < tol",
         purity.FUNCTIONAL, []),
    ],
    ids=["own binding", "imported binding", "import not defined", "own shadows import",
         "own operator binding", "own computed value", "imported computed value",
         "definition rebound, read", "definition rebound, called", "own constant"],
)
def test_name_resolution_against_the_owning_module(lib_src, src, status, reasons):
    report = analyze(src, others=[module_of(lib_src, "lib")])
    verdict = verdict_of(report, "f").verdict
    assert verdict.status == status
    assert [(r.kind, r.detail) for r in verdict.reasons] == reasons
    assert [callee for caller, callee in report.edges if caller == ("m", "f")] == (
        [("m", "helper")] if not reasons else []
    )


def test_nested_function_locals_do_not_leak_to_the_enclosing_function():
    facts = scan("function(a) { g <- function(z) { y <- z + a; y }; c(y, z, g(a)) }")
    assert set(facts.name_uses) == {"+", "y", "z"}


def test_unknown_import_module_errors():
    with pytest.raises(MlsError, match="imports unknown module"):
        analyze("import nowhere (thing)\nf <- function() 1")


def test_calling_non_function_binding_is_dynamic():
    report = analyze('Gen <- setRefClass("Gen", fields = list())\nf <- function() Gen()')
    fr = verdict_of(report, "f")
    assert fr.verdict.status == purity.UNCERTIFIABLE
    assert fr.verdict.reasons[0].kind == purity.DYNAMIC_CODE


def test_reference_to_impure_builtin_as_value_is_flagged():
    report = analyze("f <- function() { g <- rng_draw; g(1) }")
    fr = verdict_of(report, "f")
    assert fr.verdict.status == purity.NONFUNCTIONAL
    assert fr.verdict.reasons[0].kind == purity.RNG_DEPENDENCE


def test_calling_a_formal_is_not_a_violation():
    report = analyze("f <- function(g, x) g(x)")
    assert verdict_of(report, "f").verdict.status == purity.FUNCTIONAL


# -- propagation -------------------------------------------------------------------

def test_reason_inheritance_two_node_graph():
    src = "h <- function(x) { tally <<- x }\nf <- function(x) h(x)"
    report = analyze(src)
    fr = verdict_of(report, "f")
    assert fr.verdict.status == purity.NONFUNCTIONAL
    assert fr.verdict.via == ["h"]
    assert [v.kind for v in fr.verdict.reasons] == [purity.NONLOCAL_ASSIGNMENT]
    assert fr.verdict.own_reasons == []


def test_mutually_recursive_pure_pair():
    src = (
        "even_p <- function(n) if (n == 0) TRUE else odd_p(n - 1)\n"
        "odd_p <- function(n) if (n == 0) FALSE else even_p(n - 1)"
    )
    report = analyze(src)
    assert verdict_of(report, "even_p").verdict.status == purity.FUNCTIONAL
    assert verdict_of(report, "odd_p").verdict.status == purity.FUNCTIONAL


def test_cycle_members_share_reasons():
    src = (
        "a <- function(n) if (n == 0) rng_draw(1) else b(n - 1)\n"
        "b <- function(n) a(n)"
    )
    report = analyze(src)
    assert verdict_of(report, "a").verdict.status == purity.NONFUNCTIONAL
    assert verdict_of(report, "b").verdict.status == purity.NONFUNCTIONAL
    assert "a" in verdict_of(report, "b").verdict.via


def test_uncertifiable_dominates():
    src = (
        'low <- function(x) foreign("ext", x)\n'
        "mid2 <- function(x) { t <<- 1; low(x) }\n"
        "top <- function(x) mid2(x)"
    )
    report = analyze(src)
    fr = verdict_of(report, "top")
    assert fr.verdict.status == purity.UNCERTIFIABLE
    kinds = {v.kind for v in fr.verdict.reasons}
    assert purity.FOREIGN_CODE in kinds and purity.NONLOCAL_ASSIGNMENT in kinds


def test_monotonicity_adding_callee_violation():
    clean = analyze("g <- function(x) x\nf <- function(x) g(x)")
    dirty = analyze("g <- function(x) { z <<- x }\nf <- function(x) g(x)")
    order = {purity.FUNCTIONAL: 0, purity.NONFUNCTIONAL: 1, purity.UNCERTIFIABLE: 2}
    assert (
        order[verdict_of(dirty, "f").verdict.status]
        >= order[verdict_of(clean, "f").verdict.status]
    )


# -- remediation ---------------------------------------------------------------------

def test_remediation_texts():
    report = analyze(
        "f <- function(x) {\n"
        '  tol <- get_option("tol")\n'
        "  jittered <- x + rng_draw(1)\n"
        "  acc <<- jittered\n"
        "  lost(x)\n"
        "}"
    )
    fr = verdict_of(report, "f")
    assert fr.suggestions == [
        "return the value instead of assigning nonlocally",
        "lift option 'tol' to an explicit parameter",
        "accept the generator's initial state as an argument",
        "require explicit set_seed in reproducible examples",
        "declare an import or define locally",
    ]


def test_functional_verdict_has_no_suggestions():
    report = analyze("f <- function(x) x + 1")
    assert verdict_of(report, "f").suggestions == []


def test_foreign_remediation():
    report = analyze('f <- function(x) foreign("ext", x)')
    assert verdict_of(report, "f").suggestions == [
        "no automatic remediation; manual audit required"
    ]


# -- whole-module analysis --------------------------------------------------------------

def test_factorial_module_functional():
    report = analyze("factorial <- function(x) if (x > 0) x * factorial(x - 1) else 1")
    assert verdict_of(report, "factorial").verdict.status == purity.FUNCTIONAL


def test_counter_module_nonfunctional():
    report = analyze("make <- function() { n <- 0; function() { n <<- n + 1; n } }")
    fr = verdict_of(report, "make")
    assert fr.verdict.status == purity.NONFUNCTIONAL


def test_foreign_module_uncertifiable():
    report = analyze('f <- function(a, b) foreign("blas_dgemm", a, b)')
    assert verdict_of(report, "f").verdict.status == purity.UNCERTIFIABLE


def test_report_is_deterministic():
    src = "f <- function(x) { y <<- rng_draw(1); mystery(x) }\ng <- function(x) f(x)"
    a = report_as_dict(analyze(src))
    b = report_as_dict(analyze(src))
    assert a == b
    assert purity.render_json(analyze(src)) == purity.render_json(analyze(src))


def test_taxonomy_is_exactly_six_kinds():
    assert set(purity.ALL_KINDS) == {
        "NonlocalAssignment",
        "StateRead",
        "RngDependence",
        "GlobalReference",
        "ForeignCode",
        "DynamicCode",
    }


PURITY_CLASSES = {
    "pure", "state_read", "rng", "foreign", "dynamic", "global_ref", "local_assign",
}


def test_every_builtin_is_classified():
    policy = purity.default_policy()
    unclassified = [name for name in BUILTIN_NAMES if name not in policy]
    assert unclassified == []
    unknown = {name: kind for name, kind in policy.items() if kind not in PURITY_CLASSES}
    assert unknown == {}


def test_a_variadic_builtin_classed_state_read_reads_a_dynamically_named_option():
    policy = purity.default_policy()
    policy["paste"] = "state_read"
    report = analyze('f <- function(x) paste(name = "tol", x)', policy=policy)
    assert [(v.kind, v.detail) for v in verdict_of(report, "f").verdict.reasons] == [
        (purity.STATE_READ, "reads a dynamically named option")
    ]


def test_whitelist_perturbation():
    policy = purity.default_policy()
    del policy["c"]
    report = analyze("f <- function(x) c(x, 1)", policy=policy)
    fr = verdict_of(report, "f")
    assert fr.verdict.status == purity.UNCERTIFIABLE
    assert "not certified" in fr.verdict.reasons[0].detail


def test_import_lines_preserve_line_numbers():
    lib = module_of("helper <- function(x) x", "lib")
    src = "import lib (helper)\nf <- function(x) {\n  x <<- 1\n}"
    report = analyze(src, others=[lib])
    fr = verdict_of(report, "f")
    assert fr.verdict.reasons[0].line == 3


def test_json_report_schema():
    report = analyze("f <- function(n) rng_draw(n)")
    doc = json.loads(purity.render_json(report))
    assert set(doc) == {"modules", "summary"}
    assert set(doc["summary"]) == {"functional", "nonfunctional", "uncertifiable"}
    fn = doc["modules"][0]["functions"][0]
    assert set(fn) == {"function", "status", "reasons", "via", "suggestions"}
    assert set(fn["reasons"][0]) == {"kind", "line", "column", "detail"}


# strings that json must escape: quotes, backslashes, control characters,
# non-ASCII, astral characters and a lone surrogate
_awkward = st.text(alphabet='"\\/\x00\x08\x0c\x1f\x7f\n\t\u00e9\u2028\U0001f600\ud800a ', max_size=8)
_strings = st.one_of(st.text(max_size=8), _awkward)
_counts = st.integers(min_value=0, max_value=10**12)
_violations = st.builds(purity.Violation, _strings, _counts, _counts, _strings)
_verdicts = st.builds(
    purity.Verdict, _strings, st.lists(_violations, max_size=3),
    st.lists(_strings, max_size=3), st.just([]),
)
_function_reports = st.builds(
    purity.FunctionReport, _strings, _strings, _verdicts, st.lists(_strings, max_size=3)
)
_reports = st.builds(
    purity.AnalysisReport,
    st.lists(st.tuples(_strings, st.lists(_function_reports, max_size=3)), max_size=3),
    st.just([]),
    st.fixed_dictionaries(
        {purity.FUNCTIONAL: _counts, purity.NONFUNCTIONAL: _counts, purity.UNCERTIFIABLE: _counts}
    ),
)


@settings(max_examples=300, deadline=None)
@given(_reports)
def test_render_json_matches_the_json_module(report):
    expected = json.dumps(report_as_dict(report), sort_keys=True, indent=2) + "\n"
    assert purity.render_json(report) == expected


def test_operator_named_definitions_are_analyzed(corpus_dir):
    src = (corpus_dir / "money.mls").read_text()
    report = purity.analyze_modules([purity.parse_module("money", src)])
    stats = {fr.name: fr.verdict.status for _, rs in report.modules for fr in rs}
    assert "+.money" in stats
    assert all(status == purity.FUNCTIONAL for status in stats.values())


def test_analysis_makes_no_reference_cycle(corpus_dir):
    """The scan's walk is no pair of closures calling each other, so
    analysing and rendering the fixture modules leaves nothing for the
    cyclic collector to free."""
    modules = [purity.parse_module(p.stem, p.read_text())
               for p in sorted((corpus_dir / "analyzer").rglob("*.mls"))]
    assert len(modules) == 12
    with collector_paused():
        purity.render_json(purity.analyze_modules(modules))
        assert gc.collect() == 0


def test_differential_harness_on_pure_module():
    m = module_of("f <- function(x) x * 2 + 1")
    out = differential_check([m], "f(20)")
    assert out.payload == [41]


def test_differential_harness_catches_state_change():
    m = module_of("f <- function(x) { leak <<- x; x }")
    with pytest.raises(AssertionError, match="state changed"):
        differential_check([m], "f(1)")
