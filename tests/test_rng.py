import resource
import subprocess
import sys

import pytest

import rng_reference as ref
from helpers import values_equal
from mls import rng, values
from mls.values import MlsError


def test_seed_state_nonzero():
    for seed in (0, 1, 42, -1, 2**63, 2**64 - rng._SPLITMIX_GAMMA):
        assert rng.seed_state(seed) != 0


def test_draws_in_unit_interval():
    state = rng.seed_state(7)
    for _ in range(1000):
        state, u = rng.draw(state)
        assert 0.0 <= u < 1.0


def test_trajectory_is_function_of_seed():
    for seed in (0, 1, 42, 123456789):
        s1 = rng.seed_state(seed)
        s2 = rng.seed_state(seed)
        for _ in range(50):
            s1, u1 = rng.draw(s1)
            s2, u2 = rng.draw(s2)
            assert s1 == s2 and u1 == u2


def test_generator_matches_reference_oracle():
    for seed in (0, 1, 42, 7, 999999, -5):
        oracle = ref.ReferenceRng(seed)
        state = rng.seed_state(seed)
        for _ in range(200):
            state, u = rng.draw(state)
            assert u == oracle.draw()


def test_first_word_from_seed_42_matches_reference():
    # frozen from the standalone oracle
    oracle = ref.ReferenceRng(42)
    expected = oracle.draw()
    state = rng.seed_state(42)
    _, u = rng.draw(state)
    assert u == expected


def test_interpreter_rng_builtins(interp):
    a = interp.eval_source("set_seed(11)\nrng_draw(5)")
    b = interp.eval_source("set_seed(11)\nrng_draw(5)")
    assert values_equal(a, b)
    assert len(a.payload) == 5


def test_rng_draw_zero_leaves_state(interp):
    interp.eval_source("set_seed(3)")
    before = interp.eval_source(".Random.seed").payload[0]
    out = interp.eval_source("rng_draw(0)")
    assert out.payload == []
    assert interp.eval_source(".Random.seed").payload[0] == before


def test_rng_draw_negative_errors(interp):
    with pytest.raises(MlsError, match="invalid count"):
        interp.eval_source("rng_draw(0 - 1)")


@pytest.mark.parametrize("call", ["rng_draw(0/0)", "rng_draw(1/0)", "set_seed(0 - 1/0)"])
def test_non_finite_counts_and_seeds_are_errors(interp, call):
    with pytest.raises(MlsError, match="must be a single integer"):
        interp.eval_source(call)


def test_state_lives_in_global_environment(interp):
    interp.eval_source("set_seed(5)")
    seen = interp.eval_source(".Random.seed")
    assert seen.kind == values.INTEGER
    interp.eval_source("rng_draw(1)")
    assert interp.eval_source(".Random.seed").payload != seen.payload


def test_state_is_restorable(interp):
    interp.eval_source("set_seed(5)\nsaved <- .Random.seed\nfirst <- rng_draw(3)")
    again = interp.eval_source(".Random.seed <- saved\nrng_draw(3)")
    assert values_equal(interp.eval_source("first"), again)


def test_default_initialization_is_deterministic():
    from mls.interpreter import Interpreter

    a = Interpreter().eval_source("rng_draw(4)")
    b = Interpreter().eval_source("rng_draw(4)")
    assert values_equal(a, b)


# -- the draw count is bounded ----------------------------------------------------

_ADDRESS_SPACE_CAP = 1536 * 2**20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, _ADDRESS_SPACE_CAP))


@pytest.mark.parametrize("count", ["9223372036854775807", str(values.MAX_LENGTH + 1), "1e300"])
def test_rng_draw_past_the_length_limit_fails_before_allocating(tmp_path, count):
    # Under a 1.5 GB address-space cap, so that a count that did start
    # allocating would end in MemoryError rather than exhaust the machine.
    script = tmp_path / "draw.mls"
    script.write_text(f"x <- 1\nrng_draw({count})\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mls", "run", str(script)],
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: invalid count for rng_draw: more than {values.MAX_LENGTH} draws (line 2, column 1)\n"
    )


# -- .Random.seed is the state's signed 64-bit reading ------------------------------


def _signed(state):
    return state - 2**64 if state >= 2**63 else state


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
def test_random_seed_is_signed_and_draws_match_the_reference(interp, seed):
    interp.eval_source(f"set_seed({seed})")
    state = rng.seed_state(seed)
    assert interp.eval_source(".Random.seed").payload == [_signed(state)]
    # arithmetic on it stays inside the integer bound
    assert interp.eval_source(".Random.seed + 0").payload == [_signed(state)]
    assert interp.eval_source("rng_draw(50)").payload == ref.ReferenceRng(seed).draws(50)


def test_a_state_above_two_to_the_63_restores_from_a_literal(interp, capsys):
    assert rng.seed_state(1) >= 2**63
    interp.eval_source("set_seed(1)\nsaved <- .Random.seed\nfirst <- rng_draw(3)")
    printed = interp.eval_source("saved").payload[0]
    assert printed < 0
    again = interp.eval_source(f".Random.seed <- {printed}\nrng_draw(3)")
    assert values_equal(interp.eval_source("first"), again)
    assert values_equal(interp.eval_source("saved"), interp.eval_source(f"{printed} + 0"))


def test_the_state_two_to_the_63_is_stored_as_its_signed_reading(interp):
    """The one state whose signed reading, -2^63, is past the integer
    bound: it is stored and restores like any other state, and arithmetic
    on it is an integer overflow."""
    interp.set_rng_state(2**63)
    assert interp.eval_source(".Random.seed").payload == [-(2**63)]
    expected, state = [], 2**63
    for _ in range(3):
        state, u = rng.draw(state)
        expected.append(u)
    interp.eval_source("saved <- .Random.seed\nfirst <- rng_draw(3)")
    assert interp.eval_source("first").payload == expected
    assert interp.eval_source(".Random.seed <- saved\nrng_draw(3)").payload == expected
    with pytest.raises(MlsError, match="integer overflow in '\\+'"):
        interp.eval_source("saved + 0")


@pytest.mark.parametrize("value", ["0", "1.5", "c(1, 2)", '"a"'])
def test_invalid_random_seed_values_are_errors(interp, value):
    with pytest.raises(MlsError, match="invalid .Random.seed value"):
        interp.eval_source(f".Random.seed <- {value}\nrng_draw(1)")
