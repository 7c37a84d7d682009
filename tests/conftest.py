import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mls.interpreter import Interpreter

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"


@pytest.fixture
def interp():
    return Interpreter()


@pytest.fixture
def capture():
    """Interpreter whose printed output is collected in a buffer."""
    out = io.StringIO()
    err = io.StringIO()
    i = Interpreter(stdout=out, stderr=err)
    i.out = out
    i.err = err
    return i


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture
def int_digit_limit():
    """The host's limit on digits in int/str conversion, set to its
    minimum for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)
