import pytest

import rng_reference as ref
from mls import printer, values
from mls.values import MlsError

SIMPLEPOP = """
SimplePop <- setRefClass("SimplePop",
  fields = list(
    birth = list(class = "numeric", readonly = TRUE),
    death = list(class = "numeric", readonly = TRUE),
    size = "numeric"),
  methods = list(
    evolve = function() {
      n <- size[length(size)]
      births <- sum(rng_draw(n) < birth)
      deaths <- sum(rng_draw(n) < death)
      nxt <- n + births - deaths
      if (nxt < 0) nxt <- 0
      size <<- c(size, nxt)
    }))
"""


def run(interp, src):
    return interp.eval_source(src)


def make_pop(interp):
    run(interp, SIMPLEPOP)
    run(interp, "p <- SimplePop(birth = 0.08, death = 0.1, size = 100)")


def test_generator_construction(interp):
    make_pop(interp)
    assert run(interp, "p$size").payload == [100]
    assert run(interp, "p$birth").payload == [0.08]


def test_generator_new_entry_point(interp):
    run(interp, SIMPLEPOP)
    run(interp, "q <- SimplePop$new(birth = 0.1, death = 0.1, size = 5)")
    assert run(interp, "q$size").payload == [5]
    assert run(interp, "SimplePop$className").payload == ["SimplePop"]
    assert run(interp, "SimplePop$definition$fields").payload == ["birth", "death", "size"]


PAIR = 'Pair <- setRefClass("Pair", fields = list(a = "numeric", b = "numeric"))\n'


@pytest.mark.parametrize("make", ["Pair", "Pair$new"])
def test_generator_arguments_are_evaluated_in_call_order(interp, make):
    run(interp, PAIR + "seen <- c()")
    run(interp, f"p <- {make}(b = {{seen <- c(seen, 1); 2}}, a = {{seen <- c(seen, 2); 1}})")
    assert run(interp, "seen").payload == [1, 2]
    assert run(interp, "c(p$a, p$b)").payload == [1, 2]


@pytest.mark.parametrize("make", ["Pair", "Pair$new"])
def test_error_in_generator_argument_keeps_message_and_location(interp, make):
    run(interp, PAIR)
    line = f'p <- {make}(a = 1, b = stop("no b"))'
    with pytest.raises(MlsError) as exc:
        run(interp, "x <- 1\n" + line)
    assert (exc.value.message, exc.value.loc) == ("no b", (2, line.index("stop") + 1))


def test_generator_and_new_build_the_same_instance(interp):
    run(interp, PAIR)
    direct = printer.format_value(run(interp, "Pair(a = 1, b = 2)"), interp)
    via_new = printer.format_value(run(interp, "Pair$new(a = 1, b = 2)"), interp)
    assert direct == via_new == (
        'Reference class object of class "Pair"\n'
        'Field "a":\n[1] 1\n\n'
        'Field "b":\n[1] 2\n'
    )


def test_field_type_checked_at_construction(interp):
    run(interp, SIMPLEPOP)
    with pytest.raises(MlsError, match="expected 'numeric'"):
        run(interp, 'SimplePop(birth = "x", death = 0.1, size = 1)')


def test_unknown_field_rejected(interp):
    run(interp, SIMPLEPOP)
    with pytest.raises(MlsError, match="not a field"):
        run(interp, "SimplePop(bogus = 1)")


def test_two_instances_are_independent(interp):
    make_pop(interp)
    run(interp, "q <- SimplePop(birth = 0.08, death = 0.1, size = 100)")
    run(interp, "set_seed(1); p$evolve()")
    assert len(run(interp, "p$size").payload) == 2
    assert len(run(interp, "q$size").payload) == 1


def test_evolve_appends_one_generation(interp):
    make_pop(interp)
    run(interp, "set_seed(7); p$evolve()")
    sizes = run(interp, "p$size")
    assert len(sizes.payload) == 2
    assert sizes.payload[0] == 100


def test_alias_sees_mutation(interp):
    make_pop(interp)
    run(interp, "q <- p")
    run(interp, "set_seed(2); q$evolve()")
    assert len(run(interp, "p$size").payload) == 2
    run(interp, "p$size <- c(1)")
    assert run(interp, "q$size").payload == [1]


def test_argument_passing_aliases_too(interp):
    make_pop(interp)
    run(interp, "poke <- function(pop) { pop$size <- c(42); pop$birth }")
    run(interp, "poke(p)")
    assert run(interp, "p$size").payload == [42]


def test_read_only_rejected_after_construction(interp):
    make_pop(interp)
    with pytest.raises(MlsError, match="read-only"):
        run(interp, "p$birth <- 0.9")
    with pytest.raises(MlsError, match="read-only"):
        run(interp, "setter <- function(pop) pop$birth <- 1; setter(p)")


def test_read_only_rejected_via_superassign_in_method(interp):
    run(
        interp,
        """
Locked <- setRefClass("Locked",
  fields = list(k = list(class = "numeric", readonly = TRUE)),
  methods = list(tamper = function() k <<- k + 1))
obj <- Locked(k = 1)
""",
    )
    with pytest.raises(MlsError, match="read-only"):
        run(interp, "obj$tamper()")


@pytest.mark.parametrize("spec", ["invisible", "function() 1", "environment()", '"no"',
                                  "c(FALSE, TRUE)"])
def test_readonly_must_be_one_logical(interp, spec):
    line = f'P <- setRefClass("P", fields = list(a = list(class = "numeric", readonly = {spec})))'
    with pytest.raises(MlsError) as exc:
        run(interp, "x <- 1\n" + line)
    assert (exc.value.message, exc.value.loc) == (
        "invalid readonly declaration for field 'a'", (2, line.index("setRefClass") + 1))


@pytest.mark.parametrize("spec, writable", [("TRUE", False), ("FALSE", True)])
def test_readonly_true_or_false(interp, spec, writable):
    run(interp, f'P <- setRefClass("P", fields = list(a = list(readonly = {spec}))); p <- P(a = 1)')
    if writable:
        run(interp, "p$a <- 2")
        assert run(interp, "p$a").payload == [2]
    else:
        with pytest.raises(MlsError, match="read-only"):
            run(interp, "p$a <- 2")


def test_field_type_checked_on_set(interp):
    make_pop(interp)
    with pytest.raises(MlsError, match="expected 'numeric'"):
        run(interp, 'p$size <- "nope"')


def test_copy_instance_independence(interp):
    make_pop(interp)
    run(interp, "r <- copy(p)")
    run(interp, "set_seed(3); p$evolve()")
    assert len(run(interp, "r$size").payload) == 1
    assert len(run(interp, "p$size").payload) == 2
    assert run(interp, "r$birth").payload == [0.08]
    with pytest.raises(MlsError, match="read-only"):
        run(interp, "r$birth <- 1")


def test_ordinary_values_in_fields_keep_value_semantics(interp):
    make_pop(interp)
    run(interp, "mangle <- function(v) { v[1] <- -1; v }")
    run(interp, "out <- mangle(p$size)")
    assert run(interp, "out").payload == [-1]
    assert run(interp, "p$size").payload == [100]


def test_methods_see_self(interp):
    run(
        interp,
        """
Node <- setRefClass("Node",
  fields = list(v = "numeric"),
  methods = list(me = function() .self))
n <- Node(v = 1)
same <- n$me()
""",
    )
    assert run(interp, "same$v").payload == [1]
    run(interp, "n$v <- 9")
    assert run(interp, "same$v").payload == [9]


def test_field_method_namespace_clash(interp):
    with pytest.raises(MlsError, match="both a field and a method"):
        run(
            interp,
            'setRefClass("Clash", fields = list(size = "numeric"), '
            "methods = list(size = function() 1))",
        )


def test_contains_must_be_ref_class(interp):
    run(interp, 'setClass("PlainS4", slots = list())')
    with pytest.raises(MlsError, match="not a reference class"):
        run(interp, 'setRefClass("Sub", fields = list(), contains = "PlainS4")')


def test_inheritance_merges_and_overrides(interp):
    run(
        interp,
        """
Base <- setRefClass("Base",
  fields = list(a = "numeric"),
  methods = list(
    describe = function() "base",
    bump = function() a <<- a + 1))
Child <- setRefClass("Child",
  fields = list(b = "numeric"),
  methods = list(describe = function() "child"),
  contains = "Base")
kid <- Child(a = 1, b = 2)
""",
    )
    assert run(interp, "kid$describe()").payload == ["child"]
    run(interp, "kid$bump()")
    assert run(interp, "kid$a").payload == [2]


def test_redeclaring_inherited_field_is_error(interp):
    run(interp, 'B2 <- setRefClass("B2", fields = list(a = "numeric"))')
    with pytest.raises(MlsError, match="already declared"):
        run(interp, 'setRefClass("C2", fields = list(a = "numeric"), contains = "B2")')


def test_unknown_method_errors(interp):
    make_pop(interp)
    with pytest.raises(MlsError, match="not a field or method"):
        run(interp, "p$devolve()")


def test_active_fields(interp):
    run(
        interp,
        """
Box <- setRefClass("Box",
  fields = list(
    w = "numeric",
    wide = list(
      get = function() w * 2,
      set = function(value) w <<- value / 2)))
b <- Box(w = 10)
""",
    )
    assert run(interp, "b$wide").payload == [20]
    run(interp, "b$w <- 15")
    assert run(interp, "b$wide").payload == [30]
    run(interp, "b$wide <- 8")
    assert run(interp, "b$w").payload == [4]


def test_active_field_without_setter_rejects_writes(interp):
    run(
        interp,
        'RO <- setRefClass("RO", fields = list(w = "numeric", '
        "twice = list(get = function() w * 2)))\nr <- RO(w = 1)",
    )
    assert run(interp, "r$twice").payload == [2]
    with pytest.raises(MlsError, match="no setter"):
        run(interp, "r$twice <- 4")


def test_copy_recomputes_active_fields(interp):
    run(
        interp,
        'AB <- setRefClass("AB", fields = list(w = "numeric", '
        "twice = list(get = function() w * 2)))\na <- AB(w = 2)\nb <- copy(a)",
    )
    run(interp, "b$w <- 5")
    assert run(interp, "b$twice").payload == [10]
    assert run(interp, "a$twice").payload == [4]


def test_cannot_initialize_active_field(interp):
    run(
        interp,
        'AC <- setRefClass("AC", fields = list(w = "numeric", '
        "twice = list(get = function() w * 2)))",
    )
    with pytest.raises(MlsError, match="active field"):
        run(interp, "AC(twice = 4)")


def test_chained_method_calls_through_self(interp):
    run(
        interp,
        """
Acct <- setRefClass("Acct",
  fields = list(b = "numeric"),
  methods = list(dep = function(a) { b <<- b + a; invisible(.self) }))
x <- Acct(b = 1)
x$dep(2)$dep(3)
""",
    )
    assert run(interp, "x$b").payload == [6]


def test_active_getter_errors_propagate(interp):
    run(
        interp,
        'B <- setRefClass("B", fields = list(x = list(get = function() stop("boom"))))'
        "\nb <- B()",
    )
    with pytest.raises(MlsError, match="boom"):
        run(interp, "b$x")


def test_nested_ref_instances_copied_recursively(interp):
    run(
        interp,
        """
Inner <- setRefClass("Inner", fields = list(v = "numeric"))
Outer <- setRefClass("Outer", fields = list(kid = "Inner"))
o <- Outer(kid = Inner(v = 1))
o2 <- copy(o)
o$kid$v <- 99
""",
    )
    assert run(interp, "o2$kid$v").payload == [1]


def test_ref_class_participates_in_s4_dispatch(interp):
    run(interp, SIMPLEPOP)
    run(interp, 'setGeneric("tally", function(x) standardGeneric("tally"))')
    run(interp, 'setMethod("tally", c("SimplePop"), function(x) length(x$size))')
    run(interp, "p <- SimplePop(birth = 0.1, death = 0.1, size = 3)")
    assert run(interp, "tally(p)").payload == [1]


@pytest.mark.parametrize(
    "src",
    ['SimplePop(birth = "x", death = 0.1, size = 1)', 'p$birth <- "x"', 'p$tamper("x")'],
)
def test_invalid_field_value_message(interp, src):
    run(interp, SIMPLEPOP)
    run(interp, 'Tamper <- setRefClass("Tamper", fields = list(birth = "numeric"), '
                'methods = list(tamper = function(v) birth <<- v))')
    run(interp, "p <- Tamper(birth = 1)")
    with pytest.raises(MlsError) as err:
        run(interp, src)
    message = "invalid value for field 'birth': expected 'numeric', got 'character'"
    assert err.value.message == message


def test_class_and_inherits_of_an_instance(interp):
    make_pop(interp)
    assert "class" not in run(interp, "p").attributes
    assert run(interp, "class(p)").payload == ["SimplePop"]
    assert run(interp, 'inherits(p, "SimplePop")').payload == [True]
    assert run(interp, 'inherits(p, "list")').payload == [False]
    run(interp, 'R <- setRefClass("R", fields = list(a = "numeric"))')
    run(interp, 'S <- setRefClass("S", contains = "R")')
    assert run(interp, "class(S$new(a = 1))").payload == ["S"]
    assert run(interp, 'inherits(S$new(a = 1), "R")').payload == [True]
    run(interp, 'describe <- function(obj) UseMethod("describe")')
    run(interp, 'describe.R <- function(obj) "an R"')
    assert run(interp, "describe(S$new())").payload == ["an R"]


def test_new_on_a_reference_class_builds_a_reference_instance(interp):
    run(interp, 'R <- setRefClass("R", fields = list(a = "numeric"))')
    r = run(interp, 'new("R", a = 1)')
    assert r.kind == values.REF_INSTANCE
    assert run(interp, 'new("R", a = 1)$a').payload == [1]
    assert printer.format_value(run(interp, 'new("R")'), interp).startswith(
        'Reference class object of class "R"'
    )
    with pytest.raises(MlsError) as err:
        run(interp, 'new("R", b = 1)')
    assert err.value.message == "'b' is not a field of class 'R'"


def test_redefined_superclass_reaches_an_existing_generator(interp):
    run(interp, 'P <- setRefClass("P", fields = list(a = "numeric"))')
    run(interp, 'Q <- setRefClass("Q", contains = "P")')
    run(interp, 'old <- Q$new(a = 1)')
    run(interp, 'P <- setRefClass("P", fields = list(b = "numeric"))')
    assert run(interp, "Q$new(b = 1)$b").payload == [1]
    assert run(interp, 'Q$definition$fields').payload == ["b"]
    with pytest.raises(MlsError) as err:
        run(interp, "Q$new(a = 1)")
    assert err.value.message == "'a' is not a field of class 'Q'"
    assert run(interp, "old$a").payload == [1]


def test_clashing_field_in_an_existing_subclass_rejects_the_redefinition(interp):
    run(interp, 'P <- setRefClass("P", fields = list(a = "numeric"))')
    run(interp, 'Q <- setRefClass("Q", fields = list(b = "numeric"), contains = "P")')
    with pytest.raises(MlsError) as err:
        run(interp, 'setRefClass("P", fields = list(b = "numeric"))')
    assert err.value.message == "field 'b' of class 'Q' is already declared by a superclass"
    assert run(interp, "Q$new(a = 1, b = 2)$a").payload == [1]


def test_s4_redefinition_under_a_reference_subclass_is_rejected(interp):
    run(interp, 'P <- setRefClass("P", fields = list(a = "numeric"))')
    run(interp, 'Q <- setRefClass("Q", contains = "P")')
    before = interp.s4.classes["P"]
    with pytest.raises(MlsError) as err:
        run(interp, 'setClass("P", slots = list(z = "numeric"))')
    assert err.value.message == "superclass 'P' is not a reference class"
    assert interp.s4.classes["P"] is before
    assert run(interp, "Q$new(a = 1)$a").payload == [1]
    assert run(interp, "P$new(a = 2)$a").payload == [2]


def test_rejected_redefinition_keeps_the_registry(interp):
    run(interp, 'A <- setRefClass("A", fields = list(a = "numeric"))')
    run(interp, 'B <- setRefClass("B", fields = list(b = "numeric"), contains = "A")')
    with pytest.raises(MlsError, match="inheritance cycle"):
        run(interp, 'setRefClass("A", fields = list(z = "numeric"), contains = "B")')
    assert list(interp.s4.classes["A"].ref.fields) == ["a"]
    assert interp.s4.classes["A"].contains == []
    assert list(interp.s4.lineage("B").fields) == ["a", "b"]
    assert run(interp, "A(a = 1)$a").payload == [1]


def test_copy_reads_the_instance_not_its_redefined_class(interp):
    run(interp, 'P <- setRefClass("P", fields = list(a = "numeric"))')
    run(interp, "p <- P$new(a = 1)")
    run(interp, 'P <- setRefClass("P", fields = list(b = "numeric"))')
    run(interp, "q <- copy(p)")
    assert printer.format_value(run(interp, "q$a"), interp) == "[1] 1"
    with pytest.raises(MlsError) as err:
        run(interp, "q$b")
    assert err.value.message == "'b' is not a field or method of class 'P'"
    run(interp, "q$a <- 2")
    assert run(interp, "p$a").payload == [1]
    with pytest.raises(MlsError, match="invalid value for field 'a'"):
        run(interp, 'q$a <- "x"')


def test_copy_keeps_methods_and_accessors_over_the_copy(interp):
    run(interp, 'P <- setRefClass("P", fields = list(w = "numeric", '
                "twice = list(get = function() w * 2)), "
                "methods = list(get_w = function() w, bump = function() w <<- w + 1))")
    run(interp, "p <- P$new(w = 1)")
    # the class no longer has `get_w`; the copy keeps it, enclosed over the copy
    run(interp, 'P <- setRefClass("P", fields = list(z = "numeric"))')
    run(interp, "q <- copy(p)\nq$bump()")
    assert (run(interp, "q$w").payload, run(interp, "q$twice").payload) == ([2], [4])
    assert (run(interp, "p$get_w()").payload, run(interp, "q$get_w()").payload) == ([1], [2])
    with pytest.raises(MlsError, match="'z' is not a field or method"):
        run(interp, "q$z")


def test_seeded_trajectory_matches_reference(interp):
    make_pop(interp)
    run(interp, "set_seed(42)")
    run(interp, "i <- 0\nwhile (i < 10) { p$evolve(); i <- i + 1 }")
    got = run(interp, "p$size").payload
    expected = ref.simulate_population(42, 0.08, 0.1, 100, 10)
    assert got == expected


@pytest.mark.parametrize("name", ["run", ".self"])
def test_dollar_assignment_rejects_a_method_or_self(interp, name):
    run(interp, 'P <- setRefClass("P", fields = list(a = "numeric"), '
                'methods = list(run = function() a))')
    run(interp, "p <- P$new(a = 1)")
    with pytest.raises(MlsError) as err:
        run(interp, f"p$`{name}` <- 5")
    assert err.value.message == f"'{name}' is not a field of class 'P'"
    assert err.value.loc == (1, 1)
    assert run(interp, "p$run()").payload == [1]
    run(interp, "p$a <- 2")
    assert run(interp, "p$run()").payload == [2]


@pytest.mark.parametrize("name", ["run", ".self"])
def test_superassignment_in_a_method_rejects_a_method_or_self(interp, name):
    source = ('P <- setRefClass("P", fields = list(a = "numeric"), methods = list('
              f"run = function() a, clobber = function() `{name}` <<- 5, "
              "bump = function() { a <<- a + 1; b <<- 9 }))")
    run(interp, source)
    run(interp, "p <- P$new(a = 1)")
    with pytest.raises(MlsError) as err:
        run(interp, "p$clobber()")
    assert err.value.message == f"'{name}' is not a field of class 'P'"
    assert err.value.loc == (1, source.index("`") + 1)
    assert run(interp, "p$run()").payload == [1]
    # a field and a name outside the instance are still assigned
    run(interp, "p$bump()")
    assert (run(interp, "p$run()").payload, run(interp, "b").payload) == ([2], [9])
